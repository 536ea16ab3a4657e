package engine

import "testing"

// testLink is a link between two bare routers of a Sim that has only
// their arrival schedules and ring arenas, so a link can be driven alone.
type testLink struct {
	link
	s *Sim
	c ringCursors
}

// wiredLink returns a local link of the given latency wired, as
// Sim.allocate wires every link, from output port 0 of router 0 to input
// port 0 of router 1.
func wiredLink(latency int) *testLink {
	l := &testLink{s: &Sim{routers: make([]router, 2)}}
	l.init(latency)
	words := arrivalWords(latency, latency)
	for i := range l.s.routers {
		l.s.routers[i].arrivals.init(make([]uint32, words), latency, 0, true)
	}
	n, err := ringDirLen(1, ringClass{1, int64(l.mask + 1)})
	if err != nil {
		panic(err)
	}
	l.s.rings.phits.relay(n)
	l.s.rings.credits.relay(n)
	l.wire(1, 0, 0, 0, 0)
	return l
}

func (l *testLink) sendPhit(now int64, pkt pktRef, vc int) { l.link.sendPhit(l.s, &l.c, now, pkt, vc) }

func (l *testLink) recvPhit(now int64) (pktRef, int) { return l.link.recvPhit(l.s, now) }

func (l *testLink) sendCredit(now int64, vc int) { l.link.sendCredit(l.s, &l.c, now, vc) }

func (l *testLink) recvCredit(now int64) (int, bool) { return l.link.recvCredit(l.s, now) }

func TestLinkDeliversAfterExactLatency(t *testing.T) {
	l := wiredLink(10)
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
	l := wiredLink(4)
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
	l := wiredLink(3)
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
	l := wiredLink(2)
	p := pktRef(1)
	l.sendPhit(0, p, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double send into one slot did not panic")
		}
	}()
	l.sendPhit(0, p, 1)
}

// TestPackedSlotsRoundTrip: a phit slot packs a ref of up to 28 bits with
// a VC of up to 4, and a credit slot a VC in one byte; the extreme values
// come back out intact. The arena refuses to grow its directory to a
// chunk whose refs would not fit, checked on the growth path without
// allocating 2^22 chunks.
func TestPackedSlotsRoundTrip(t *testing.T) {
	l := wiredLink(3)
	now := int64(0)
	for _, ref := range []pktRef{1, 1<<28 - 1} {
		for _, vc := range []int{0, 15} {
			l.sendPhit(now, ref, vc)
			l.sendCredit(now, vc)
			if pkt, got := l.recvPhit(now + 3); pkt != ref || got != vc {
				t.Errorf("phit (%d, vc %d) came back as (%d, vc %d)", ref, vc, pkt, got)
			}
			if got, ok := l.recvCredit(now + 3); !ok || got != vc {
				t.Errorf("credit for vc %d came back as (%d, %v)", vc, got, ok)
			}
			now++
		}
	}

	var a packetArena
	a.next.Store(maxPktChunks - 1) // the last chunk whose refs fit is next
	defer func() {
		if recover() == nil {
			t.Fatal("the directory grew past the refs a phit slot holds")
		}
	}()
	a.reserve(2)
}
