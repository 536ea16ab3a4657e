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

// vcBuffer is one virtual-channel FIFO of an input port. Packets stream
// through it under cut-through: an entry exists from the arrival of the
// head phit to the departure of the tail phit. The header fits one cache
// line; every packet has the simulation's one size, which the router
// passes in, so the per-phit paths never load the packet.
type vcBuffer struct {
	// entries is the entry ring, allocated on the first push (entN slots;
	// see ringEntries): on a large fabric most VC buffers never see a
	// packet, and their rings would dominate the idle memory footprint.
	entries []fifoEntry

	capacity int32 // phits
	used     int32 // phits currently held
	entN     int32
	head     int32
	count    int32
	tail     int32 // ring index of the newest entry; meaningless when count == 0

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

// init fixes the buffer's dimensions: capacity in phits and ring size in
// entries (see ringEntries). The ring itself is allocated by the first push.
func (b *vcBuffer) init(capacityPhits, entN int) {
	b.capacity = int32(capacityPhits)
	b.entN = int32(entN)
}

// reset empties the buffer for a new run. A ring an earlier run grew is
// cleared and kept, so a re-initialised simulation does not pay the first
// touch again.
func (b *vcBuffer) reset() {
	clear(b.entries)
	*b = vcBuffer{capacity: b.capacity, entN: b.entN, entries: b.entries}
}

// empty reports whether no packet is present.
func (b *vcBuffer) empty() bool { return b.count == 0 }

// headEntry returns the oldest entry; it panics when empty.
func (b *vcBuffer) headEntry() *fifoEntry {
	if b.count == 0 {
		panic("engine: headEntry on empty vcBuffer")
	}
	return &b.entries[b.head]
}

// wrap reduces a ring index in [0, 2*len) into [0, len); cheaper than a
// modulo on this hot path.
func (b *vcBuffer) wrap(i int32) int32 {
	if i >= b.entN {
		i -= b.entN
	}
	return i
}

// pushPhit accounts the arrival of one phit of pkt, a packet of size
// phits, opening a new entry when pkt is not the packet currently
// streaming in. The tail entry only
// absorbs the phit while it is still filling: a packet that revisits the
// same buffer later (possible on OFAR's escape ring) must open a fresh
// entry or the accounting of the two visits would merge. It reports
// whether a new entry was opened, so the router can maintain its
// buffered-entry activity count.
func (b *vcBuffer) pushPhit(pkt pktRef, size int32) (newEntry bool) {
	if b.count > 0 {
		if t := &b.entries[b.tail]; t.pkt == pkt && int32(t.arrived) < size {
			t.arrived++
			b.used++
			return false
		}
	}
	if b.entries == nil {
		b.entries = make([]fifoEntry, b.entN)
	}
	if b.count == b.entN {
		panic(fmt.Sprintf("engine: vcBuffer ring overflow (cap %d phits, %d entries)",
			b.capacity, b.count))
	}
	i := b.wrap(b.head + b.count)
	b.entries[i] = fifoEntry{pkt: pkt, arrived: 1}
	b.tail = i
	b.count++
	b.used++
	return true
}

// pushWholePacket enqueues a fully present packet of size phits (used by
// injection queues, where serialization happens on the crossbar instead).
func (b *vcBuffer) pushWholePacket(pkt pktRef, size int32) {
	if b.count == b.entN || b.used+size > b.capacity {
		panic("engine: pushWholePacket without space")
	}
	if b.entries == nil {
		b.entries = make([]fifoEntry, b.entN)
	}
	i := b.wrap(b.head + b.count)
	b.entries[i] = fifoEntry{pkt: pkt, arrived: uint16(size)}
	b.tail = i
	b.count++
	b.used += size
}

// hasSpaceFor reports whether a whole packet of size phits fits now.
func (b *vcBuffer) hasSpaceFor(size int32) bool {
	return b.used+size <= b.capacity && b.count < b.entN
}

// takePhit accounts one phit of the head entry, a packet of size phits,
// leaving the buffer and reports whether it was the packet's tail (in
// which case the entry is popped and the claim released).
func (b *vcBuffer) takePhit(size int32) (pkt pktRef, tail bool) {
	e := b.headEntry()
	if e.sent >= e.arrived {
		panic("engine: takePhit without a buffered phit")
	}
	e.sent++
	b.used--
	pkt = e.pkt
	if int32(e.sent) == size {
		b.entries[b.head] = fifoEntry{}
		b.head = b.wrap(b.head + 1)
		b.count--
		b.claimed = false
		b.planned = false
		return pkt, true
	}
	return pkt, false
}
