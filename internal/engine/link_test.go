package engine

import "testing"

func TestLinkDeliversAfterExactLatency(t *testing.T) {
	var l link
	l.init(10)
	p := pktRef(1)
	l.sendPhit(100, p, 2)
	for c := int64(101); c < 110; c++ {
		if pkt, _ := l.recvPhit(c); pkt != 0 {
			t.Fatalf("phit arrived early at cycle %d", c)
		}
	}
	pkt, vc := l.recvPhit(110)
	if pkt != p || vc != 2 {
		t.Fatalf("recvPhit = (%v, %d), want (p, 2)", pkt, vc)
	}
	if pkt, _ := l.recvPhit(110); pkt != 0 {
		t.Fatal("phit delivered twice")
	}
}

func TestLinkCreditLatency(t *testing.T) {
	var l link
	l.init(4)
	l.sendCredit(50, 1)
	if _, ok := l.recvCredit(53); ok {
		t.Fatal("credit arrived early")
	}
	vc, ok := l.recvCredit(54)
	if !ok || vc != 1 {
		t.Fatalf("recvCredit = (%d, %v)", vc, ok)
	}
	if _, ok := l.recvCredit(54); ok {
		t.Fatal("credit delivered twice")
	}
}

func TestLinkBackToBackPhits(t *testing.T) {
	var l link
	l.init(3)
	a := pktRef(1)
	for c := int64(0); c < 20; c++ {
		l.sendPhit(c, a, 0)
		if c >= 3 {
			if pkt, _ := l.recvPhit(c); pkt == 0 {
				t.Fatalf("pipeline bubble at cycle %d", c)
			}
		}
	}
}

func TestLinkSlotCollisionPanics(t *testing.T) {
	var l link
	l.init(2)
	p := pktRef(1)
	l.sendPhit(0, p, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double send into one slot did not panic")
		}
	}()
	l.sendPhit(0, p, 1)
}
