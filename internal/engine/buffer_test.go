package engine

import "testing"

// testBuffer is a VC buffer of capacity phits for packets of size phits
// with an entry arena of its own, so a buffer can be driven alone.
type testBuffer struct {
	vcBuffer
	a ringArena[fifoEntry]
	c ringCursor
	d vcDims
}

func newTestBuffer(capacity, size int) *testBuffer {
	b := &testBuffer{d: vcDims{capacity: int32(capacity), entN: int32(ringEntries(capacity, size))}}
	n, err := ringDirLen(1, ringClass{1, int64(b.d.entN)})
	if err != nil {
		panic(err)
	}
	b.a.relay(n)
	return b
}

func (b *testBuffer) pushPhit(pkt pktRef, size int32) bool {
	return b.vcBuffer.pushPhit(&b.a, &b.c, b.d, pkt, size)
}

func (b *testBuffer) pushWholePacket(pkt pktRef, size int32) {
	b.vcBuffer.pushWholePacket(&b.a, &b.c, b.d, pkt, size)
}

func (b *testBuffer) hasSpaceFor(size int32) bool { return b.vcBuffer.hasSpaceFor(b.d, size) }

func (b *testBuffer) takePhit(size int32) (pktRef, bool) {
	return b.vcBuffer.takePhit(b.vcBuffer.headEntry(&b.a), b.d.entN, size)
}

func (b *testBuffer) headEntry() *fifoEntry { return b.vcBuffer.headEntry(&b.a) }

func TestBufferPushTake(t *testing.T) {
	b := newTestBuffer(32, 8)
	p := pktRef(1)
	for i := 0; i < 8; i++ {
		b.pushPhit(p, 8)
	}
	if b.used != 8 || b.count != 1 {
		t.Fatalf("after arrival: used=%d count=%d", b.used, b.count)
	}
	for i := 0; i < 7; i++ {
		if _, tail := b.takePhit(8); tail {
			t.Fatalf("tail reported at phit %d", i)
		}
	}
	pkt, tail := b.takePhit(8)
	if !tail || pkt != p {
		t.Fatalf("tail not reported on last phit")
	}
	if !b.empty() || b.used != 0 {
		t.Fatalf("buffer not empty after drain: used=%d count=%d", b.used, b.count)
	}
}

func TestBufferFIFOOrder(t *testing.T) {
	b := newTestBuffer(32, 8)
	p1 := pktRef(1)
	p2 := pktRef(2)
	for i := 0; i < 8; i++ {
		b.pushPhit(p1, 8)
	}
	for i := 0; i < 8; i++ {
		b.pushPhit(p2, 8)
	}
	if b.count != 2 {
		t.Fatalf("count = %d, want 2", b.count)
	}
	if b.headEntry().pkt != p1 {
		t.Fatal("head is not the first packet")
	}
	for i := 0; i < 8; i++ {
		b.takePhit(8)
	}
	if b.headEntry().pkt != p2 {
		t.Fatal("second packet did not become head")
	}
}

func TestBufferCutThroughInterleaving(t *testing.T) {
	// A packet can start leaving while still arriving.
	b := newTestBuffer(32, 8)
	p := pktRef(1)
	b.pushPhit(p, 8)
	if _, tail := b.takePhit(8); tail {
		t.Fatal("tail on first phit")
	}
	// Now the head entry holds zero phits but remains present.
	if b.empty() {
		t.Fatal("buffer empty while packet streams through")
	}
	b.pushPhit(p, 8)
	b.pushPhit(p, 8)
	if b.used != 2 {
		t.Fatalf("used = %d, want 2", b.used)
	}
}

func TestBufferSpaceAccounting(t *testing.T) {
	b := newTestBuffer(16, 8)
	if !b.hasSpaceFor(8) {
		t.Fatal("fresh buffer rejects a packet")
	}
	b.pushWholePacket(1, 8)
	b.pushWholePacket(2, 8)
	if b.hasSpaceFor(8) {
		t.Fatal("full buffer accepts a packet")
	}
}

func TestBufferTakeFromEmptyPanics(t *testing.T) {
	b := newTestBuffer(8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("takePhit on empty buffer did not panic")
		}
	}()
	b.takePhit(8)
}

func TestBufferTakeBeyondArrivedPanics(t *testing.T) {
	b := newTestBuffer(8, 8)
	p := pktRef(1)
	b.pushPhit(p, 8)
	b.takePhit(8)
	defer func() {
		if recover() == nil {
			t.Fatal("takePhit beyond arrived did not panic")
		}
	}()
	b.takePhit(8)
}
