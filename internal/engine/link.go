package engine

import "sync/atomic"

// link is one directed physical channel. The sender writes at most one phit
// per cycle into the time-indexed phit ring; the receiver reads slot
// cycle%len. Credits travel the opposite way on the credit ring with the
// same latency. Both rings are single-writer/single-reader, which is what
// makes the parallel executor race-free without locks. Under block stepping
// (see Sim.blockMax) the two ends of a global link run up to n cycles apart
// within a block of n cycles: a send at cycle t writes slot t+latency, and
// it can neither land in a slot the reader still has to consume nor be
// consumed early as long as n <= latency and n <= ring length - latency.
// The ends of a local link belong to one group and step in lockstep.
//
// Each direction also announces its traffic on the receiving router's
// arrival schedule (router rx's for phits, router tx's for the credits
// flowing back to the sender), which is what lets idle routers skip
// scanning their links: a send is recorded under its arrival cycle,
// strictly before that cycle is reached, so a receiver whose schedule
// slot reads zero provably has nothing to absorb this cycle. A link's ring
// slots are 4 bytes for a phit and 1 for a credit, in the Sim's phit and
// credit arenas; they are the wire's whole cost besides this 28-byte,
// pointer-free header once it has carried traffic.
type link struct {
	phits, credits ringRef // the rings, made on first send (zero until then)

	rx, tx int32 // the phit receiver and the credit receiver (the sender), as router ids

	latency int32
	mask    int32 // ring length - 1 (length is a power of two)
	// phitBit and creditBit are the bits this link's phits and credits
	// set in their receivers' arrival words (see wire); global selects
	// the global rings.
	phitBit, creditBit uint8
	global             bool
}

// arrivalSchedule records, per cycle, *which ports* of one router receive
// a phit or a credit. Senders OR their port's bit into the slot of the
// arrival cycle at send time; the receiver drains its current slot once
// per cycle and walks only the set bits — the empty links of the port
// scan the masks replace are never touched. One bit per port suffices: a
// link delivers at most one phit and one credit per cycle, and bit order
// reproduces the ascending-port order of the scan, so absorption order —
// and therefore results — are identical.
//
// A slot for cycle c is only ever written during cycles < c (latency is
// at least 1) and only read at cycle c. It has two rings, each as long as
// its links' latency needs, in one window of the simulation's arena:
//   - the local ring, arrivalSlotCount(LatLocal) pairs of words (input
//     ports with a phit, output ports with a credit; at most 2h-1 <= 31
//     local ports each). Both ends of a local link are routers of one
//     group, and one worker steps a group's routers in lockstep on one
//     goroutine (Sim.allocate's group-aligned ranges), so writers and
//     reader never run concurrently: plain stores, in every run.
//   - the global ring, arrivalSlotCount(LatGlobal) words: phits on global
//     input port GlobalPortBase+i set bit i, credits on global output port
//     GlobalPortBase+i bit 16+i (h <= 16). A global-link sender may run up
//     to n cycles ahead of, or behind, the receiver within a block of n
//     cycles; with n <= ring length - LatGlobal (Sim.blockMax) its writes
//     never reach a slot the receiver has yet to drain, so concurrent
//     accesses can only be ORs by different senders — atomic ones when
//     workers step in parallel.
type arrivalSchedule struct {
	slots []uint32 // the local pairs, then the global words
	lmask int32    // local ring length - 1
	gmask int32    // global ring length - 1
	goff  int32    // where the global ring starts: 2 × local ring length
	gbase uint8    // GlobalPortBase: where take puts the global bits
	// serial marks single-worker simulations: every send and drain runs
	// on one goroutine, so the global ring's updates skip the LOCKed
	// read-modify-write instructions. The block barrier provides the
	// cross-block happens-before edges either way.
	serial bool
}

// arrivalSlotCount returns the power-of-two ring length for a latency: at
// least latency+2 slots. Link rings and arrival schedules both use it, and
// the block bound (Sim.blockMax) reads it.
func arrivalSlotCount(latency int) int {
	n := 1
	for n < latency+2 {
		n <<= 1
	}
	return n
}

// arrivalWords returns the length of one router's schedule window.
func arrivalWords(latLocal, latGlobal int) int {
	return 2*arrivalSlotCount(latLocal) + arrivalSlotCount(latGlobal)
}

// init points the schedule at its window of the simulation's
// router-ordered arena, so the cross-worker-written words of all routers
// live in one allocation away from the routers' single-writer hot state.
// The arena's owner clears the words between runs.
func (s *arrivalSchedule) init(slots []uint32, latLocal, gbase int, serial bool) {
	s.slots = slots
	s.lmask = int32(arrivalSlotCount(latLocal) - 1)
	s.goff = 2 * (s.lmask + 1)
	s.gmask = int32(len(slots)) - s.goff - 1
	s.gbase = uint8(gbase)
	s.serial = serial
}

// addLocal records an arrival at cycle at on the local ring: word 0 for a
// phit, 1 for a credit.
func (s *arrivalSchedule) addLocal(at, word int64, bit uint8) {
	s.slots[2*(at&int64(s.lmask))+word] |= 1 << bit
}

// addGlobal records an arrival at cycle at on the global ring.
func (s *arrivalSchedule) addGlobal(at int64, bit uint8) {
	if w := &s.slots[int64(s.goff)+at&int64(s.gmask)]; s.serial {
		*w |= 1 << bit
	} else {
		atomic.OrUint32(w, 1<<bit)
	}
}

// take drains the given cycle's slots and returns its arrival masks in
// port numbering: input ports with a phit, output ports with a credit.
// Plain accesses suffice even for the global word: every global send of a
// block arrives after the block, so no sender writes a slot while it is
// drained.
func (s *arrivalSchedule) take(cycle int64) (phits, credits uint64) {
	l := s.slots[2*(cycle&int64(s.lmask)):]
	w := &s.slots[int64(s.goff)+cycle&int64(s.gmask)]
	v := *w
	phits, credits = uint64(l[0])|uint64(uint16(v))<<s.gbase, uint64(l[1])|uint64(v>>16)<<s.gbase
	l[0], l[1], *w = 0, 0, 0
	return phits, credits
}

// phitSlot carries one phit: ref<<4 | vc, the packet it belongs to (zero:
// no phit, as ref 0 is never handed out) and the virtual channel it rides
// on (sender output VC == receiver input VC, below the engine's 16-VC
// limit). Refs fit the 28 bits left (see maxPktChunks).
type phitSlot uint32

// creditSlot returns one buffer credit for a VC of the receiver's input
// port back to the sender: vc+1, zero for no credit.
type creditSlot uint8

// init sets a link's latency. The phit and credit rings are made lazily
// on first send: a long-latency global link costs hundreds of slots, and
// on a large fabric under light load most links never carry anything.
// Laziness is race-free because each ring has exactly one writer (the phit
// sender, respectively the credit sender), the allocating side, and the
// reader only looks after an arrival was announced: on the same worker for
// a local link, at least one block barrier after the allocating write for
// a global one. The latency is at least 1 (Config.validate).
func (l *link) init(latency int) {
	l.latency = int32(latency)
	l.mask = int32(arrivalSlotCount(latency) - 1)
}

// wire attaches the link to its ends: it feeds input port inPort of router
// rx, and its credits return to output port outPort of router tx. A local
// link sets its ports' bits in the local words; a global one sets bit
// port-gbase of the global word (gbase: GlobalPortBase), plus 16 for a
// credit.
func (l *link) wire(rx, inPort, tx, outPort, gbase int) {
	l.rx, l.tx = int32(rx), int32(tx)
	l.phitBit, l.creditBit = uint8(inPort), uint8(outPort)
	if l.global {
		l.phitBit -= uint8(gbase)
		l.creditBit += 16 - uint8(gbase)
	}
}

// sendPhit schedules a phit to arrive at now+latency. The sender's worker
// cursors c make the ring on the first send.
func (l *link) sendPhit(s *Sim, c *ringCursors, now int64, pkt pktRef, vc int) {
	a := &s.rings.phits
	if l.phits == 0 {
		l.phits = a.alloc(&c.phits, l.mask+1)
	}
	at := now + int64(l.latency)
	slot := a.at(l.phits + ringRef(at&int64(l.mask)))
	if *slot != 0 {
		panic("engine: phit slot collision")
	}
	*slot = phitSlot(pkt)<<4 | phitSlot(vc)
	if sched := &s.routers[l.rx].arrivals; l.global {
		sched.addGlobal(at, l.phitBit)
	} else {
		sched.addLocal(at, 0, l.phitBit)
	}
}

// recvPhit consumes the phit arriving now, if any.
func (l *link) recvPhit(s *Sim, now int64) (pkt pktRef, vc int) {
	slot := s.rings.phits.at(l.phits + ringRef(now&int64(l.mask)))
	pkt, vc = pktRef(*slot>>4), int(*slot&15)
	*slot = 0
	return pkt, vc
}

// sendCredit schedules a credit to arrive at the sender at now+latency.
// The credit sender's worker cursors c make the ring on the first send.
func (l *link) sendCredit(s *Sim, c *ringCursors, now int64, vc int) {
	a := &s.rings.credits
	if l.credits == 0 {
		l.credits = a.alloc(&c.credits, l.mask+1)
	}
	at := now + int64(l.latency)
	slot := a.at(l.credits + ringRef(at&int64(l.mask)))
	if *slot != 0 {
		panic("engine: credit slot collision")
	}
	*slot = creditSlot(vc + 1)
	if sched := &s.routers[l.tx].arrivals; l.global {
		sched.addGlobal(at, l.creditBit)
	} else {
		sched.addLocal(at, 1, l.creditBit)
	}
}

// recvCredit consumes the credit arriving now, if any.
func (l *link) recvCredit(s *Sim, now int64) (vc int, ok bool) {
	slot := s.rings.credits.at(l.credits + ringRef(now&int64(l.mask)))
	c := *slot
	*slot = 0
	return int(c) - 1, c != 0
}
