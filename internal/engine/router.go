package engine

import (
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// transfer is an output-VC allocation: the head packet of input VC
// (inPort, inVC), buffer buf of router.vcs, streams through this output VC
// until its tail passes. A slot is live exactly while its bit is set in
// outPort.activeVCs.
type transfer struct {
	pkt    pktRef
	buf    int32
	inPort int16
	inVC   int8
}

// outPort is one output of a router: the link it drives (nil for ejection
// ports and the drop sink) and where its VCs' credit counters and transfer
// slots start in the router's credits and transfers arrays.
type outPort struct {
	link     *link
	base     int32 // first VC's index in router.credits and router.transfers
	capacity int32 // downstream buffer capacity per VC (phits)
	// activeVCs has one bit per VC whose transfer slot is live — the only
	// record of it — so CanClaim's busy check costs one load from this
	// struct instead of a pointer chase into the transfer slots.
	activeVCs uint16
	nvc       uint8 // VCs (credits are unused for ejection and the sink)
	rr        uint8 // round-robin cursor over VCs
	global    bool  // link class, for statistics
}

// inPort is one input of a router: the link feeding it (nil for injection
// ports, fed by the local traffic generator) and where its VC buffers, and
// their head plans, start in router.vcs and router.plans.
type inPort struct {
	link *link
	vc0  int32
}

// router holds all per-router simulation state. Routers never touch each
// other's state directly: all communication crosses time-indexed link
// rings, so the parallel executor can run routers concurrently, and groups
// up to a block apart in simulated time. Every slice is a window of one
// fabric-wide array in router order (see Sim.allocate), so a group's ports,
// buffers, credits and plans sit together in memory.
//
// Stepping is activity-driven: the router tracks how much work it could
// possibly have this cycle (buffered packet entries, scheduled phit and
// credit arrivals) and skips the per-port scan loops entirely when there
// is none. The tracked sets are pure functions of simulation state, so
// skipping never changes results — serial and parallel runs, and runs with
// or without the skip, all stay bit-identical.
//
// The fields every cycle reads come first, then the ones an active cycle
// reads, then set-up and bookkeeping.
type router struct {
	eng *Sim
	// arrivals schedules the phits and credits in flight toward this
	// router by arrival cycle. Senders fill it inside sendPhit/sendCredit
	// (they know the arrival cycle at send time); step drains the current
	// cycle's slot and skips the absorb scan entirely when it is empty.
	// The slots are the only cross-router-written state; they live in the
	// simulation's router-ordered slot arena (this header is read-only
	// after construction), so remote workers' writes never invalidate the
	// cache lines of this struct's single-writer hot fields.
	arrivals arrivalSchedule
	// injectAt is the earliest appointment of the router's nodes (see
	// nodePhase), or phaseRefreshAt if sooner: inject runs on no other
	// cycle.
	injectAt int64
	// occupied counts packet entries across all input VC buffers
	// (injection queues included). Nonzero occupied covers every local
	// work source: unclaimed heads, active transfers, packets streaming.
	occupied int
	// pbCooldown is the number of upcoming cycles that must still refresh
	// this router's Piggybacking bits: credit state changes are published
	// into a double-buffered table, so after the last change both buffers
	// need one write each before the refresh can stop.
	pbCooldown int8
	// parity is the parity of the cycle being stepped: GlobalCongested
	// reads the group's Piggybacking table of that parity.
	parity uint8
	// parked is true while this router is failed as a whole: its attached
	// nodes suppress generation (counted separately from drops) and
	// packets arriving for them are diverted to the drop sink. Tracks the
	// FaultSet's router state exactly (no staleness: the router itself
	// always knows it is dead); flipped only in the serial section.
	parked       bool
	needHeadFull bool // the mechanism consults HeadFullyArrived (OFAR's store-and-forward ring)
	pktSize      int32
	group        int32 // cached topology group of this router
	id           int
	// nodePhase caches each attached node's resolved active phase, valid
	// until phaseRefreshAt, and its next generation cycle.
	nodePhase      []nodePhase
	nodeRand       []rng.PCG // one generator stream per attached node
	phaseRefreshAt int64

	// per-cycle scratch: one bit per output/input port (the 63-port
	// activity-mask limit guarantees the fault-drop sink's bit Topo.Ports
	// still fits), cleared with two stores instead of two slice walks.
	portSent  uint64 // output port already transmitted this cycle
	inputUsed uint64 // input port already read this cycle
	// xferPorts has one bit per output port with an active transfer.
	xferPorts uint64
	// claimPorts summarizes claimVCs: one bit per input port with a VC
	// whose buffer has an unclaimed head.
	claimPorts uint64
	// deadPorts has one bit per output port whose link has failed; kept in
	// sync with the engine's FaultSet at cycle boundaries. Dead ports
	// refuse new claims, but transfers already streaming across them
	// finish (and their credits keep flowing): a kill takes effect for
	// flow control immediately and the committed traffic drains.
	deadPorts uint64

	in        []inPort
	out       []outPort
	vcs       []vcBuffer // every input VC, port by port (see inPort.vc0)
	credits   []int32    // per output VC (see outPort.base); unused for ejection
	transfers []transfer // per output VC (see outPort.base)
	claimVCs  []uint16   // per input port: one bit per VC with an unclaimed head
	// plans caches, per input VC (indexed like vcs), the static geometry
	// of the buffered head's routing decision (see core.Plan): built when
	// a new packet reaches the front, replayed every retry cycle without
	// touching the packet, and invalidated by head changes
	// (vcBuffer.headSeq) or routing-table recomputations (Sim.routeEpoch).
	plans []core.Plan

	alg       core.Algorithm
	routeRand rng.PCG
	flow      FlowControl // cached from Config for the per-phit hot paths

	// sheet, prog and pkts are the metrics sheet, progress counters and
	// free packets of the worker that steps this router: pinned by
	// Sim.allocate, carried through reset, never touched by another worker.
	sheet *metrics.Sheet
	prog  *progress
	pkts  *packetList

	// curQueueOcc/Cap/HeadFull describe the input buffer of the packet
	// currently being routed (set around each alg.Route call; see
	// CurrentQueue and HeadFullyArrived).
	curQueueOcc int
	curQueueCap int
	curHeadFull bool

	pktSeq int64 // per-router packet id sequence

	lastDeliveryCycle int64

	// phaseCur caches, per workload job, the index of the last phase this
	// router observed active. Phase transitions are pure functions of the
	// cycle number and refreshPhases runs at increasing cycles, so the
	// cached cursor only ever advances and stays identical across worker
	// shardings.
	phaseCur []int32
}

// reset returns the router to cycle 0 of a run: the allocation (ports,
// buffers, plan slots, RNG streams, wiring) stays, every other field goes
// back to its zero value, and then the run's flow control, seed and the
// traits of the run's mechanism are applied — full credits, empty buffers and rings, no
// transfers, no valid plan, re-seeded streams.
func (r *router) reset(flow FlowControl, seed uint64) {
	e := r.eng
	*r = router{
		id: r.id, group: r.group, eng: e, alg: r.alg,
		in: r.in, out: r.out, vcs: r.vcs, credits: r.credits, transfers: r.transfers,
		plans: r.plans, claimVCs: r.claimVCs, nodeRand: r.nodeRand,
		sheet: r.sheet, prog: r.prog, pkts: r.pkts,
		arrivals: r.arrivals, phaseCur: r.phaseCur, nodePhase: r.nodePhase,
		pktSize: r.pktSize,

		flow:         flow,
		needHeadFull: e.cfg.Spec.UsesHeadArrival(),
	}
	r.routeRand.Seed(seed, uint64(r.id)*2+1)
	for k := range r.nodeRand {
		r.nodeRand[k].Seed(seed, uint64(e.topo.NodeID(r.id, k))*2+2_000_000)
	}
	for i := range r.vcs {
		r.vcs[i].reset()
	}
	for i := range r.out {
		op := &r.out[i]
		op.activeVCs, op.rr = 0, 0
		if op.link != nil {
			op.link.reset()
			credits := r.outCredits(i)
			for v := range credits {
				credits[v] = op.capacity
			}
		}
	}
	clear(r.transfers)
	for i := range r.plans {
		r.plans[i].Invalidate()
	}
	clear(r.claimVCs)
	clear(r.phaseCur)
	clear(r.nodePhase)
}

// outCredits returns output port's credit counters, one per VC.
func (r *router) outCredits(port int) []int32 {
	op := &r.out[port]
	return r.credits[op.base : op.base+int32(op.nvc)]
}

// view adapts the router to core.View during routing evaluation.
func (r *router) CanClaim(port, vc, size int) bool {
	op := &r.out[port]
	if (r.deadPorts>>uint(port))&1 != 0 || (op.activeVCs>>uint(vc))&1 != 0 {
		return false
	}
	if op.link == nil {
		return true // ejection and the drop sink: infinite credits
	}
	return r.credits[op.base+int32(vc)] >= r.flow.claimNeed(int32(size))
}

// CanStart implements core.View: the credit-only claim condition.
func (r *router) CanStart(port, vc, size int) bool {
	if r.deadPorts&(1<<uint(port)) != 0 {
		return false
	}
	op := &r.out[port]
	if op.link == nil {
		return true
	}
	return r.credits[op.base+int32(vc)] >= r.flow.claimNeed(int32(size))
}

// Occupancy implements core.View.
func (r *router) Occupancy(port, vc int) int {
	op := &r.out[port]
	if op.link == nil {
		return 0
	}
	return int(op.capacity - r.credits[op.base+int32(vc)])
}

// MinState implements core.View: Occupancy, CanClaim and CanStart of one
// output in a single dispatch — the port struct is read once.
func (r *router) MinState(port, vc, size int) (occ int, claim, start bool) {
	op := &r.out[port]
	alive := (r.deadPorts>>uint(port))&1 == 0
	if op.link == nil {
		return 0, alive && (op.activeVCs>>uint(vc))&1 == 0, alive
	}
	c := r.credits[op.base+int32(vc)]
	start = alive && c >= r.flow.claimNeed(int32(size))
	claim = start && (op.activeVCs>>uint(vc))&1 == 0
	return int(op.capacity - c), claim, start
}

// OccClaim implements core.View: Occupancy and CanClaim in one dispatch.
func (r *router) OccClaim(port, vc, size int) (occ int, claim bool) {
	op := &r.out[port]
	claim = (r.deadPorts>>uint(port))&1 == 0 && (op.activeVCs>>uint(vc))&1 == 0
	if op.link == nil {
		return 0, claim
	}
	c := r.credits[op.base+int32(vc)]
	if claim {
		claim = c >= r.flow.claimNeed(int32(size))
	}
	return int(op.capacity - c), claim
}

// Capacity implements core.View.
func (r *router) Capacity(port, vc int) int { return int(r.out[port].capacity) }

// GlobalCongested implements core.View.
func (r *router) GlobalCongested(k int) bool {
	return r.eng.pb[r.group][r.parity][k]
}

// CurrentQueue implements core.View.
func (r *router) CurrentQueue() (occupancy, capacity int) {
	return r.curQueueOcc, r.curQueueCap
}

// HeadFullyArrived implements core.View.
func (r *router) HeadFullyArrived() bool { return r.curHeadFull }

// Faulty implements core.View: true once a run has, or can develop, failed
// links. When false the other fault queries are never consulted, so the
// fault-free hot path stays exactly the pre-fault one.
func (r *router) Faulty() bool { return r.eng.faulted }

// LinkDown, PortDead, RouteDown and LocalDown implement core.View's fault
// queries as reads of the engine's routing view (see Sim.view), which lags
// the physical state by Config.StaleCycles after fault events. The
// mechanisms only ask when Faulty.

// LinkDown reports whether this router's output port drives a failed link.
func (r *router) LinkDown(port int) bool { return r.eng.view.Down(r.id, port) }

// PortDead reports whether the far-end router of this output port has
// failed entirely. Link-level faults never report true here.
func (r *router) PortDead(port int) bool {
	far, _ := r.eng.topo.LinkTarget(r.id, port)
	return r.eng.view.RouterDown(far)
}

// RouteDown reports whether the global channel from group g to tg is down.
func (r *router) RouteDown(g, tg int) bool { return r.eng.view.RouteDown(g, tg) }

// LocalDown reports whether the local link between router indices i and j
// of this router's group is down.
func (r *router) LocalDown(i, j int) bool {
	return r.eng.view.LocalRouteDown(int(r.group), i, j)
}

// markClaimable records that input (port, vc) now has an unclaimed head.
func (r *router) markClaimable(port, vc int) {
	if r.claimVCs[port] == 0 {
		r.claimPorts |= 1 << uint(port)
	}
	r.claimVCs[port] |= 1 << uint(vc)
}

// unmarkClaimable records that input (port, vc) no longer has an unclaimed
// head (claimed, or emptied).
func (r *router) unmarkClaimable(port, vc int) {
	r.claimVCs[port] &^= 1 << uint(vc)
	if r.claimVCs[port] == 0 {
		r.claimPorts &^= 1 << uint(port)
	}
}

// step advances the router by one cycle. Injection runs only when one of
// the router's nodes has an appointment (or its phases need refreshing);
// the draws of the cycles in between were made when the appointment was.
func (r *router) step(cycle int64) {
	r.parity = uint8(cycle & 1)
	if pm, cm := r.arrivals.take(cycle); pm|cm != 0 {
		r.absorb(cycle, pm, cm)
	}
	empty := r.occupied == 0
	if cycle >= r.injectAt {
		r.inject(cycle)
	}
	if empty && r.occupied == 0 {
		// Fully idle: no buffered packets, no transfers, nothing arrived,
		// nothing injected.
		if r.pbCooldown > 0 {
			r.publishPB(cycle)
			r.pbCooldown--
		}
		return
	}
	r.clearScratch()
	r.continueTransfers(cycle)
	r.makeClaims(cycle)
	r.publishPBActive(cycle)
}

// clearScratch resets the per-cycle crossbar allocation flags.
func (r *router) clearScratch() {
	r.portSent = 0
	r.inputUsed = 0
}

// absorb pulls arriving phits into input buffers and arriving credits into
// output counters. phits and credits are the arrival schedule's port masks
// for this cycle: only the ports that actually received something are
// visited, in the same ascending-port order as the scan the masks replace.
func (r *router) absorb(cycle int64, phits, credits uint64) {
	for m := phits; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		ip := &r.in[i]
		pkt, vc := ip.link.recvPhit(cycle)
		if pkt == 0 {
			panic(fmt.Sprintf("engine: phit arrival bit without a phit at router %d in port %d", r.id, i))
		}
		r.prog.inflight--
		buf := &r.vcs[ip.vc0+int32(vc)]
		if buf.pushPhit(pkt, r.pktSize) {
			r.occupied++
			r.prog.occ++
		}
		if !buf.claimed {
			r.markClaimable(i, vc)
		}
	}
	for m := credits; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		op := &r.out[i]
		r.prog.inflight--
		vc, ok := op.link.recvCredit(cycle)
		if !ok {
			panic(fmt.Sprintf("engine: credit arrival bit without a credit at router %d out port %d", r.id, i))
		}
		c := &r.credits[op.base+int32(vc)]
		*c++
		if *c > op.capacity {
			panic(fmt.Sprintf("engine: credit overflow at router %d out port %d vc %d (%d > %d)",
				r.id, i, vc, *c, op.capacity))
		}
	}
	// Credit arrivals change the occupancy the Piggybacking bits
	// summarize; schedule a refresh of both table buffers.
	if r.eng.pbEnabled {
		r.pbCooldown = 2
	}
}

// nodePhase is one attached node's cached view of its active workload
// phase (see router.refreshPhases) and its appointment.
type nodePhase struct {
	phase *traffic.Phase // nil: no job, or the job's bounded schedule expired
	// due is the node's next generation cycle, the process's draws through
	// it already made; phaseRefreshAt when there is none before then.
	due    int64
	id     int32 // workload-global phase id
	finite bool
}

// refreshPhases re-resolves every attached node's active phase, schedules
// the next refresh at the earliest upcoming transition of the jobs this
// router touches (or the run's end), and books each node's first
// appointment from cycle. A node's process never draws past the refresh,
// where it may change.
func (r *router) refreshPhases(cycle int64) {
	e := r.eng
	w := e.workload
	next := e.end
	for k := range r.nodePhase {
		np := &r.nodePhase[k]
		np.phase = nil
		ji := w.JobOf(e.topo.NodeID(r.id, k))
		if ji < 0 {
			continue
		}
		pi, active := w.PhaseAt(ji, cycle, &r.phaseCur[ji])
		if active {
			np.phase = &w.Jobs[ji].Phases[pi]
			np.id = int32(w.PhaseID(ji, pi))
			np.finite = np.phase.Process.Finite()
		}
		if nc := w.NextChange(ji, cycle); nc >= 0 && nc < next {
			next = nc
		}
	}
	r.phaseRefreshAt = next
	for k := range r.nodePhase {
		np := &r.nodePhase[k]
		np.due = next
		if np.phase != nil {
			np.due = np.phase.Process.Next(e.topo.NodeID(r.id, k), cycle, next, &r.nodeRand[k])
		}
	}
}

// inject runs the generation events due at cycle and books each of those
// nodes' next appointment. Each node's stream sees what one trial per cycle
// would give it: the trial for cycle, then the event's destination draw,
// then the trials from cycle+1 on, so a one-phase workload consumes
// randomness exactly like the classic pattern+process pair did.
func (r *router) inject(cycle int64) {
	if cycle >= r.phaseRefreshAt {
		r.refreshPhases(cycle)
	}
	next := r.phaseRefreshAt
	for k := range r.nodePhase {
		np := &r.nodePhase[k]
		if np.due == cycle {
			node := r.eng.topo.NodeID(r.id, k)
			r.generate(cycle, k, node, np)
			np.due = np.phase.Process.Next(node, cycle+1, r.phaseRefreshAt, &r.nodeRand[k])
		}
		next = min(next, np.due)
	}
	r.injectAt = next
}

// generate is node k's generation event at cycle: suppressed at a parked
// router, lost on a full injection queue (a finite process retries next
// cycle), and otherwise a new packet to the pattern's destination.
func (r *router) generate(cycle int64, k, node int, np *nodePhase) {
	e := r.eng
	if r.parked {
		// The node's router is dead: the generation event is suppressed
		// at the source. It still consumes the process (finite bursts
		// complete) and counts toward progress, so conservation holds as
		// generated == injected + lost + suppressed and drain detection
		// keeps working.
		r.sheet.RecordSuppressed(cycle, int(np.id))
		np.phase.Process.Consume(node)
		r.prog.generated++
		return
	}
	port := e.topo.EjectPortBase() + k
	q := &r.vcs[r.in[port].vc0]
	if !q.hasSpaceFor(r.pktSize) {
		if !np.finite {
			r.sheet.RecordInjectionLost(cycle, int(np.id))
		}
		return
	}
	ref, pkt := r.pkts.get(e.arena)
	pkt.ID = int64(r.id)<<32 | r.pktSeq
	r.pktSeq++
	pkt.Size = r.pktSize
	pkt.Phase = np.id
	pkt.CreatedAt = cycle
	pkt.InjectedAt = -1
	dst := np.phase.Pattern.Dest(node, &r.nodeRand[k])
	pkt.St.Init(e.topo, node, dst)
	q.pushWholePacket(ref, r.pktSize)
	r.occupied++
	r.prog.occ++
	if !q.claimed {
		r.markClaimable(port, 0)
	}
	np.phase.Process.Consume(node)
	r.sheet.RecordInjected(cycle, int(np.id))
	r.prog.generated++
	r.prog.live++
}

// continueTransfers moves one phit per output port among its active
// transfers, respecting the one-phit-per-input-port crossbar constraint.
// Only ports in the xferPorts active set are visited; bit order matches the
// ascending port order of the exhaustive scan it replaces.
func (r *router) continueTransfers(cycle int64) {
	for m := r.xferPorts; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		op := &r.out[p]
		n := int(op.nvc)
		for i := 0; i < n; i++ {
			vc := int(op.rr) + i
			if vc >= n {
				vc -= n
			}
			if (op.activeVCs>>uint(vc))&1 == 0 {
				continue
			}
			if r.trySendPhit(cycle, p, vc) {
				op.rr = uint8(vc + 1)
				break
			}
		}
	}
}

// trySendPhit attempts to move one phit of the transfer on (port, vc).
// It returns true if a phit moved.
func (r *router) trySendPhit(cycle int64, port, vc int) bool {
	op := &r.out[port]
	t := &r.transfers[op.base+int32(vc)]
	if (r.portSent>>uint(port))&1 != 0 || (r.inputUsed>>uint(t.inPort))&1 != 0 {
		return false
	}
	buf := &r.vcs[t.buf]
	if buf.empty() {
		return false
	}
	e := buf.headEntry()
	if e.pkt != t.pkt {
		panic("engine: transfer head mismatch")
	}
	if e.sent >= e.arrived {
		return false // next phit not here yet (cut-through)
	}
	if op.link != nil {
		// Under VCT the whole packet's credits were reserved at claim
		// time (see claimHead), so streaming never stalls on credits;
		// under wormhole, backpressure is per phit.
		if r.flow == WH {
			c := &r.credits[op.base+int32(vc)]
			if *c <= 0 {
				return false
			}
			*c--
		}
		op.link.sendPhit(cycle, t.pkt, vc)
		r.prog.inflight++
		if op.global {
			r.sheet.GlobalLinkPhits++
		} else {
			r.sheet.LocalLinkPhits++
		}
	}
	pkt, tail := buf.takePhit(r.pktSize)
	r.portSent |= 1 << uint(port)
	r.inputUsed |= 1 << uint(t.inPort)
	r.prog.moved++
	// The phit left the input buffer: return a credit upstream.
	if up := r.in[t.inPort].link; up != nil {
		up.sendCredit(cycle, int(t.inVC))
		r.prog.inflight++
	}
	if tail {
		t.pkt = 0
		op.activeVCs &^= 1 << uint(vc)
		if op.activeVCs == 0 {
			r.xferPorts &^= 1 << uint(port)
		}
		r.occupied--
		r.prog.occ--
		// takePhit released the buffer's claim; its next head (if any)
		// becomes claimable.
		if !buf.empty() {
			r.markClaimable(int(t.inPort), int(t.inVC))
		}
		if op.link == nil {
			if port == r.eng.topo.Ports {
				r.dropPacket(cycle, pkt)
			} else {
				r.deliver(cycle, pkt)
			}
		}
	}
	return true
}

// dropPacket finalizes a packet at the fault-drop sink: it was unroutable
// (no surviving candidates), its phits have drained, and it leaves the run
// as a FaultDrops count instead of a delivery.
func (r *router) dropPacket(cycle int64, ref pktRef) {
	pkt := r.eng.arena.at(ref)
	r.sheet.RecordFaultDrop(cycle, int(pkt.Phase))
	r.prog.live--
	r.pkts.put(ref, pkt)
}

// deliver finalizes a packet at its ejection port.
func (r *router) deliver(cycle int64, ref pktRef) {
	pkt := r.eng.arena.at(ref)
	st := &pkt.St
	if int(st.DstRouter) != r.id {
		panic("engine: delivery at wrong router")
	}
	r.sheet.RecordDelivery(cycle, int(pkt.Phase), int(pkt.Size),
		cycle-pkt.CreatedAt, cycle-pkt.InjectedAt,
		int(st.LocalHops), int(st.GlobalHops),
		int(st.LocalMisCount), int(st.GlobalMisCount), int(st.EscapeHops))
	r.prog.live--
	r.lastDeliveryCycle = cycle
	r.pkts.put(ref, pkt)
}

// makeClaims routes unclaimed head packets and allocates output VCs. Only
// (port, VC) pairs in the claimable set are visited. The round-robin
// rotation offset is derived from the cycle number — exactly the rotation
// the exhaustive scan it replaces used (its cursor advanced once per
// cycle), so arbitration order is identical, it stays identical across
// skipped idle cycles, and no counter can overflow on long runs.
func (r *router) makeClaims(cycle int64) {
	if r.claimPorts == 0 {
		return
	}
	rr := uint(cycle % int64(len(r.in)))
	// Bits >= rr first, then the wrapped-around remainder.
	hi := r.claimPorts >> rr << rr
	for m := hi; m != 0; m &= m - 1 {
		r.claimPort(cycle, bits.TrailingZeros64(m))
	}
	for m := r.claimPorts &^ hi; m != 0; m &= m - 1 {
		r.claimPort(cycle, bits.TrailingZeros64(m))
	}
}

// claimPort tries to claim every claimable head of input port p.
func (r *router) claimPort(cycle int64, p int) {
	for vcm := r.claimVCs[p]; vcm != 0; vcm &= vcm - 1 {
		vc := bits.TrailingZeros16(vcm)
		buf := &r.vcs[r.in[p].vc0+int32(vc)]
		if buf.empty() || buf.claimed {
			continue
		}
		r.claimHead(cycle, p, vc)
	}
}

// claimHead evaluates routing for the head packet of input (port, vc) and,
// when a decision is claimable, allocates the output VC (and pushes the
// first phit if the crossbar still has capacity this cycle). The head's
// plan is built once per (packet, fault epoch) and replayed on retries, so
// a waiting head costs only the dynamic predicate checks — the packet
// itself is dereferenced again only when a decision lands.
func (r *router) claimHead(cycle int64, port, vc int) {
	bi := r.in[port].vc0 + int32(vc)
	buf := &r.vcs[bi]
	e := r.eng
	size := int(r.pktSize)
	plan := &r.plans[bi]
	if plan.HeadSeq != buf.headSeq || plan.Epoch != e.routeEpoch {
		entry := buf.headEntry()
		pkt := e.arena.at(entry.pkt)
		plan.HeadSeq, plan.Epoch = buf.headSeq, e.routeEpoch
		if int(pkt.St.DstRouter) == r.id {
			plan.Eject = true
			plan.EjectPort = int16(pkt.St.DstEject)
			plan.DestDead = false
		} else if e.faulted && (e.view.RouterDown(int(pkt.St.DstRouter)) ||
			(e.hopLimit > 0 && int32(pkt.St.LocalHops)+int32(pkt.St.GlobalHops) > e.hopLimit)) {
			// The routing view knows the destination router failed
			// entirely — no route can ever deliver this packet — or the
			// packet blew the dead-router livelock budget (see hopLimit).
			// Letting it wander (or park on OFAR's escape ring) would
			// livelock. Skip the routing evaluation; it drops below.
			plan.Eject = false
			plan.DestDead = true
		} else {
			plan.Eject = false
			r.curQueueOcc, r.curQueueCap = int(buf.used), int(buf.capacity)
			r.curHeadFull = int32(entry.arrived) == r.pktSize
			r.alg.BuildPlan(r, &pkt.St, r.id, size, &r.routeRand, plan)
		}
	}

	var outPortIdx, outVC int
	var dec core.Decision
	if plan.Eject {
		outPortIdx, outVC = int(plan.EjectPort), 0
		if r.parked {
			// Ejection to a parked node is a droppable verdict: the
			// packet reached a dead router whose nodes cannot consume it,
			// so it drains through the drop sink like any unroutable one.
			outPortIdx = e.topo.Ports
		}
		if !r.CanClaim(outPortIdx, outVC, size) {
			return
		}
	} else if plan.DestDead {
		dec = core.Decision{Drop: true}
		outPortIdx, outVC = e.topo.Ports, 0
		if !r.CanClaim(outPortIdx, outVC, size) {
			return // the sink is draining another packet; retry
		}
	} else {
		r.curQueueOcc, r.curQueueCap = int(buf.used), int(buf.capacity)
		if r.needHeadFull {
			r.curHeadFull = int32(buf.headEntry().arrived) == r.pktSize
		}
		dec = r.alg.RoutePlanned(r, plan, size, &r.routeRand)
		if dec.Wait {
			return
		}
		if dec.Drop {
			// Link failures left the packet without a surviving route:
			// claim it onto the drop sink, which drains it through the
			// normal transfer machinery (credits return upstream) and
			// accounts a fault drop at the tail.
			outPortIdx, outVC = e.topo.Ports, 0
			if !r.CanClaim(outPortIdx, outVC, size) {
				return // the sink is draining another packet; retry
			}
		} else {
			outPortIdx, outVC = dec.Port, dec.VC
			if !r.CanClaim(outPortIdx, outVC, size) {
				panic(fmt.Sprintf("engine: %s routed to unclaimable (%d,%d) at router %d",
					e.cfg.Spec, outPortIdx, outVC, r.id))
			}
		}
	}
	ref := buf.headEntry().pkt
	pkt := e.arena.at(ref)
	if !plan.Eject && !dec.Drop {
		core.CommitHop(e.topo, &pkt.St, r.id, dec)
	}
	op := &r.out[outPortIdx]
	r.transfers[op.base+int32(outVC)] = transfer{pkt: ref, buf: bi, inPort: int16(port), inVC: int8(vc)}
	op.activeVCs |= 1 << uint(outVC)
	r.xferPorts |= 1 << uint(outPortIdx)
	if op.link != nil && r.flow == VCT {
		// Atomic whole-packet credit reservation: downstream free space
		// stays a whole number of packet slots, which the bubble flow
		// control of OFAR's escape ring (and VCT correctness in
		// general) depends on. Cut-through streaming then never blocks
		// on credits mid-packet.
		c := &r.credits[op.base+int32(outVC)]
		*c -= r.pktSize
		if *c < 0 {
			panic(fmt.Sprintf("engine: VCT claim without sufficient credits at router %d out port %d vc %d (deficit %d)",
				r.id, outPortIdx, outVC, -*c))
		}
	}
	buf.claimed = true
	r.unmarkClaimable(port, vc)
	if pkt.InjectedAt < 0 {
		pkt.InjectedAt = cycle
	}
	r.trySendPhit(cycle, outPortIdx, outVC)
}

// publishPBActive refreshes the Piggybacking bits at the end of an active
// cycle and schedules the follow-up refresh of the second table buffer.
func (r *router) publishPBActive(cycle int64) {
	if !r.eng.pbEnabled {
		return
	}
	r.publishPB(cycle)
	r.pbCooldown = 1
}

// publishPB refreshes the Piggybacking congestion bits for the global
// channels this router owns, into the group's table for cycle+1.
func (r *router) publishPB(cycle int64) {
	e := r.eng
	if !e.pbEnabled {
		return
	}
	topo := e.topo
	idx := topo.IndexInGroup(r.id)
	next := e.pb[r.group][(cycle+1)&1]
	for port := topo.GlobalPortBase(); port < topo.EjectPortBase(); port++ {
		op := &r.out[port]
		var occ, cap int32
		for _, c := range r.outCredits(port) {
			occ += op.capacity - c
			cap += op.capacity
		}
		k := topo.GlobalChannelOfPort(idx, port)
		next[k] = float64(occ) >= e.cfg.Routing.PBThreshold*float64(cap)
	}
}
