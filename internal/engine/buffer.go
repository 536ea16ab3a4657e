package engine

import "fmt"

// fifoEntry tracks one packet inside a virtual-channel buffer: how many of
// its phits have arrived into the buffer and how many have already been
// forwarded out of it. present = arrived - sent phits are physically held.
// Both counts fit 16 bits (MaxPacketPhits), so an entry is 8 bytes.
type fifoEntry struct {
	pkt     pktRef
	arrived uint16
	sent    uint16
}

// vcDims are the dimensions every VC buffer of one input port shares, on
// every router: capacity in phits and ring size in entries (see
// ringEntries). Sim.allocate keeps one per port in the per-port layout all
// routers share (router.dims), so no buffer header repeats them.
type vcDims struct {
	capacity int32 // phits
	entN     int32
}

// vcBuffer is one virtual-channel FIFO of an input port. Packets stream
// through it under cut-through: an entry exists from the arrival of the
// head phit to the departure of the tail phit. Every packet has the
// simulation's one size and every buffer of a port its dimensions, which
// the router passes in, so the per-phit paths never load the packet. The
// header is 24 bytes and holds no pointer: its entry ring lives in the
// Sim's entry arena (ringArenas), named by a ref.
type vcBuffer struct {
	// ring is the entry ring, made on the first push (entN slots; zero
	// until then): on a large fabric most VC buffers never see a packet,
	// and their rings would dominate the idle memory footprint.
	ring ringRef

	used  int32 // phits currently held
	head  int32
	count int32
	tail  int32 // ring index of the newest entry; meaningless when count == 0

	claimed bool // the head entry holds an output-VC transfer
	// planned is true while the router's cached plan for this buffer
	// (router.plans) holds the current head's decision: claimHead sets it
	// when it builds the plan, and popping the head or a change of the
	// routing view (Sim.applyFaultEvents) clears it.
	planned bool
}

// ringEntries returns the ring size for fixed-size packets: at most
// capacity/packet + 2 entries can coexist (full packets plus one streaming
// in and one streaming out).
func ringEntries(capacityPhits, packetPhits int) int {
	return capacityPhits/packetPhits + 3
}

// reset empties the buffer for a new run. The ring an earlier run made
// stays named (Sim.init clears every ring at once), so a re-initialised
// simulation does not pay the first touch again.
func (b *vcBuffer) reset() { *b = vcBuffer{ring: b.ring} }

// empty reports whether no packet is present.
func (b *vcBuffer) empty() bool { return b.count == 0 }

// headEntry returns the oldest entry of the ring in a; it panics when
// empty.
func (b *vcBuffer) headEntry(a *ringArena[fifoEntry]) *fifoEntry {
	if b.count == 0 {
		panic("engine: headEntry on empty vcBuffer")
	}
	return a.at(b.ring + ringRef(b.head))
}

// wrap reduces a ring index in [0, 2*entN) into [0, entN); cheaper than a
// modulo on this hot path.
func wrap(i, entN int32) int32 {
	if i >= entN {
		i -= entN
	}
	return i
}

// push appends an entry of pkt with arrived phits, making the ring in a
// from the worker's cursor c on the first push.
func (b *vcBuffer) push(a *ringArena[fifoEntry], c *ringCursor, entN int32, pkt pktRef, arrived uint16) {
	if b.ring == 0 {
		b.ring = a.alloc(c, entN)
	}
	i := wrap(b.head+b.count, entN)
	*a.at(b.ring + ringRef(i)) = fifoEntry{pkt: pkt, arrived: arrived}
	b.tail = i
	b.count++
}

// pushPhit accounts the arrival of one phit of pkt, a packet of size
// phits, opening a new entry when pkt is not the packet currently
// streaming in. The tail entry only
// absorbs the phit while it is still filling: a packet that revisits the
// same buffer later (possible on OFAR's escape ring) must open a fresh
// entry or the accounting of the two visits would merge. It reports
// whether a new entry was opened, so the router can maintain its
// buffered-entry activity count.
func (b *vcBuffer) pushPhit(a *ringArena[fifoEntry], c *ringCursor, d vcDims, pkt pktRef, size int32) (newEntry bool) {
	b.used++
	if b.count > 0 {
		if t := a.at(b.ring + ringRef(b.tail)); t.pkt == pkt && int32(t.arrived) < size {
			t.arrived++
			return false
		}
	}
	if b.count == d.entN {
		panic(fmt.Sprintf("engine: vcBuffer ring overflow (cap %d phits, %d entries)",
			d.capacity, b.count))
	}
	b.push(a, c, d.entN, pkt, 1)
	return true
}

// pushWholePacket enqueues a fully present packet of size phits (used by
// injection queues, where serialization happens on the crossbar instead).
func (b *vcBuffer) pushWholePacket(a *ringArena[fifoEntry], c *ringCursor, d vcDims, pkt pktRef, size int32) {
	if !b.hasSpaceFor(d, size) {
		panic("engine: pushWholePacket without space")
	}
	b.push(a, c, d.entN, pkt, uint16(size))
	b.used += size
}

// hasSpaceFor reports whether a whole packet of size phits fits now.
func (b *vcBuffer) hasSpaceFor(d vcDims, size int32) bool {
	return b.used+size <= d.capacity && b.count < d.entN
}

// takePhit accounts one phit of the head entry e (see headEntry), a
// packet of size phits, leaving the buffer and reports whether it was the
// packet's tail (in which case the entry is popped and the claim
// released).
func (b *vcBuffer) takePhit(e *fifoEntry, entN int32, size int32) (pkt pktRef, tail bool) {
	if e.sent >= e.arrived {
		panic("engine: takePhit without a buffered phit")
	}
	e.sent++
	b.used--
	pkt = e.pkt
	if int32(e.sent) == size {
		*e = fifoEntry{}
		b.head = wrap(b.head+1, entN)
		b.count--
		b.claimed = false
		b.planned = false
		return pkt, true
	}
	return pkt, false
}
