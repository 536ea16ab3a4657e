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
// arrival schedule (phitSched for phits, creditSched for the credits
// flowing back to the sender), which is what lets idle routers skip
// scanning their links: a send is recorded under its arrival cycle,
// strictly before that cycle is reached, so a receiver whose schedule
// slot reads zero provably has nothing to absorb this cycle.
type link struct {
	phits   []phitSlot
	credits []creditSlot

	phitSched   *arrivalSchedule // schedule of the phit receiver
	creditSched *arrivalSchedule // schedule of the credit receiver (the sender router)

	latency    int32
	mask       int32 // ring length - 1 (length is a power of two)
	phitPort   int16 // the receiver input port this link feeds
	creditPort int16 // the sender output port its credits return to
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
// at least 1) and only read at cycle c. A global-link sender may run up to
// n cycles ahead of, or behind, the receiver within a block of n cycles;
// with n <= ring length - LatGlobal its writes never reach a slot the
// receiver has yet to drain, so concurrent accesses can only be ORs by
// different senders — which is why a pair of plain atomic masks per slot
// suffices.
type arrivalSchedule struct {
	slots []arrivalSlot
	mask  int32
	// serial marks single-worker simulations: every send and drain runs
	// on one goroutine, so the mask updates skip the LOCKed read-modify-
	// write instructions. Multi-worker runs use the atomic ops; the block
	// barrier provides the cross-block happens-before edges either way.
	serial bool
}

// arrivalSlot is one cycle's arrival masks: input ports receiving a phit
// and output ports receiving a credit. Accessed through sync/atomic in
// parallel runs, plainly in serial ones.
type arrivalSlot struct {
	phits   uint64
	credits uint64
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

// init points the schedule at its slot ring — a slice of the simulation's
// router-ordered slot arena, so the cross-worker-written slots of all
// routers live in one allocation away from the routers' single-writer hot
// state. The arena's owner clears the slots between runs.
func (s *arrivalSchedule) init(slots []arrivalSlot, serial bool) {
	s.slots = slots
	s.mask = int32(len(slots) - 1)
	s.serial = serial
}

// addPhit records a phit arriving at the given input port and cycle.
func (s *arrivalSchedule) addPhit(cycle int64, port int16) {
	slot := &s.slots[cycle&int64(s.mask)]
	if s.serial {
		slot.phits |= 1 << uint(port)
		return
	}
	atomic.OrUint64(&slot.phits, 1<<uint(port))
}

// addCredit records a credit arriving at the given output port and cycle.
func (s *arrivalSchedule) addCredit(cycle int64, port int16) {
	slot := &s.slots[cycle&int64(s.mask)]
	if s.serial {
		slot.credits |= 1 << uint(port)
		return
	}
	atomic.OrUint64(&slot.credits, 1<<uint(port))
}

// take drains and returns the arrival masks for the given cycle.
func (s *arrivalSchedule) take(cycle int64) (phits, credits uint64) {
	slot := &s.slots[cycle&int64(s.mask)]
	if s.serial {
		phits, credits = slot.phits, slot.credits
		slot.phits, slot.credits = 0, 0
		return phits, credits
	}
	phits, credits = atomic.LoadUint64(&slot.phits), atomic.LoadUint64(&slot.credits)
	if phits != 0 {
		atomic.StoreUint64(&slot.phits, 0)
	}
	if credits != 0 {
		atomic.StoreUint64(&slot.credits, 0)
	}
	return phits, credits
}

// phitSlot carries one phit: the packet it belongs to (zero: no phit) and
// the virtual channel it rides on (sender output VC == receiver input VC).
type phitSlot struct {
	pkt pktRef
	vc  int8
}

// creditSlot returns one buffer credit for a VC of the receiver's input
// port back to the sender.
type creditSlot struct {
	vc    int8
	valid bool
}

// init sets a link's latency. The phit and credit rings are allocated
// lazily on first send: a long-latency global link costs hundreds of slots,
// and on a large fabric under light load most links never carry anything.
// Laziness is race-free because each ring has exactly one writer (the phit
// sender, respectively the credit sender), the allocating side, and the
// reader only looks after an arrival was announced: on the same worker for
// a local link, at least one block barrier after the allocating write for
// a global one. The latency is at least 1 (Config.validate).
func (l *link) init(latency int) {
	l.latency = int32(latency)
	l.mask = int32(arrivalSlotCount(latency) - 1)
}

// reset empties the rings for a new run, keeping the ones an earlier run
// grew.
func (l *link) reset() {
	clear(l.phits)
	clear(l.credits)
}

// sendPhit schedules a phit to arrive at now+latency.
func (l *link) sendPhit(now int64, pkt pktRef, vc int) {
	if l.phits == nil {
		l.phits = make([]phitSlot, l.mask+1)
	}
	at := now + int64(l.latency)
	s := &l.phits[at&int64(l.mask)]
	if s.pkt != 0 {
		panic("engine: phit slot collision")
	}
	s.pkt = pkt
	s.vc = int8(vc)
	if l.phitSched != nil {
		l.phitSched.addPhit(at, l.phitPort)
	}
}

// recvPhit consumes the phit arriving now, if any.
func (l *link) recvPhit(now int64) (pkt pktRef, vc int) {
	s := &l.phits[now&int64(l.mask)]
	if s.pkt == 0 {
		return 0, 0
	}
	pkt, vc = s.pkt, int(s.vc)
	s.pkt = 0
	return pkt, vc
}

// sendCredit schedules a credit to arrive at the sender at now+latency.
func (l *link) sendCredit(now int64, vc int) {
	if l.credits == nil {
		l.credits = make([]creditSlot, l.mask+1)
	}
	at := now + int64(l.latency)
	s := &l.credits[at&int64(l.mask)]
	if s.valid {
		panic("engine: credit slot collision")
	}
	s.vc = int8(vc)
	s.valid = true
	if l.creditSched != nil {
		l.creditSched.addCredit(at, l.creditPort)
	}
}

// recvCredit consumes the credit arriving now, if any.
func (l *link) recvCredit(now int64) (vc int, ok bool) {
	s := &l.credits[now&int64(l.mask)]
	if !s.valid {
		return 0, false
	}
	s.valid = false
	return int(s.vc), true
}
