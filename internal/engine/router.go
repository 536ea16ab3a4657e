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
// (inPort, inVC) streams through this output VC until its tail passes. A
// slot is live exactly while its bit is set in outPort.activeVCs.
type transfer struct {
	inPort int16
	inVC   int8
	pkt    *Packet
}

// outPort is one output of a router: the link it drives (nil for ejection
// ports), the credit counters for the downstream buffers, and the per-VC
// transfer slots. The credits and transfers slices of all of a router's
// ports share two router-wide backing arrays, so the claim and streaming
// hot paths walk contiguous memory.
type outPort struct {
	link      *link
	credits   []int32 // per VC; unused for ejection
	capacity  int32   // downstream buffer capacity per VC (phits)
	transfers []transfer
	// activeVCs has one bit per VC whose transfer slot is live — the only
	// record of it — so CanClaim's busy check costs one load from this
	// struct instead of a pointer chase into the transfer slots.
	activeVCs uint16
	rr        int  // round-robin cursor over VCs
	global    bool // link class, for statistics
}

// inPort is one input of a router: per-VC buffers fed by a link (or, for
// injection ports, by the local traffic generator).
type inPort struct {
	vcs  []vcBuffer
	link *link // nil for injection ports
}

// router holds all per-router simulation state. Routers never touch each
// other's state directly: all communication crosses time-indexed link
// rings, so the parallel executor can run routers concurrently, and groups
// up to a block apart in simulated time.
//
// Stepping is activity-driven: the router tracks how much work it could
// possibly have this cycle (buffered packet entries, scheduled phit and
// credit arrivals) and skips the per-port scan loops entirely when there
// is none. The tracked sets are pure functions of simulation state, so
// skipping never changes results — serial and parallel runs, and runs with
// or without the skip, all stay bit-identical.
type router struct {
	id    int
	group int32 // cached topology group of this router
	eng   *Sim
	alg   core.Algorithm

	in  []inPort
	out []outPort

	routeRand *rng.PCG
	nodeRand  []*rng.PCG // one generator stream per attached node

	flow FlowControl // cached from Config for the per-phit hot paths

	// sheet, prog and pkts are the metrics sheet, progress counters and
	// free packets of the worker that steps this router: pinned by
	// Sim.allocate, carried through reset, never touched by another worker.
	sheet *metrics.Sheet
	prog  *progress
	pkts  *packetList

	// Activity tracking.
	//
	// arrivals schedules the phits and credits in flight toward this
	// router by arrival cycle. Senders fill it inside sendPhit/sendCredit
	// (they know the arrival cycle at send time); step drains the current
	// cycle's slot and skips the absorb scan entirely when it is empty.
	// The slots are the only cross-router-written state; they live in the
	// simulation's router-ordered slot arena (this header is read-only
	// after construction), so remote workers' writes never invalidate the
	// cache lines of this struct's single-writer hot fields.
	arrivals arrivalSchedule
	// occupied counts packet entries across all input VC buffers
	// (injection queues included). Nonzero occupied covers every local
	// work source: unclaimed heads, active transfers, packets streaming.
	occupied int
	// claimVCs[p] holds one bit per VC of input port p whose buffer has
	// an unclaimed head; claimPorts is the port-level summary bitmask.
	claimVCs   []uint16
	claimPorts uint64
	// xferPorts has one bit per output port with an active transfer.
	xferPorts uint64
	// deadPorts has one bit per output port whose link has failed; kept in
	// sync with the engine's FaultSet at cycle boundaries. Dead ports
	// refuse new claims, but transfers already streaming across them
	// finish (and their credits keep flowing): a kill takes effect for
	// flow control immediately and the committed traffic drains.
	deadPorts uint64
	// parked is true while this router is failed as a whole: its attached
	// nodes suppress generation (counted separately from drops) and
	// packets arriving for them are diverted to the drop sink. Tracks the
	// FaultSet's router state exactly (no staleness: the router itself
	// always knows it is dead); flipped only in the serial section.
	parked bool
	// pbCooldown is the number of upcoming cycles that must still refresh
	// this router's Piggybacking bits: credit state changes are published
	// into a double-buffered table, so after the last change both buffers
	// need one write each before the refresh can stop.
	pbCooldown int8
	// parity is the parity of the cycle being stepped: GlobalCongested
	// reads the group's Piggybacking table of that parity. One byte, so it
	// sits in the padding after pbCooldown.
	parity uint8

	// phaseCur caches, per workload job, the index of the last phase this
	// router observed active. Phase transitions are pure functions of the
	// cycle number and inject runs every cycle, so the cached cursor only
	// ever advances and stays identical across worker shardings.
	phaseCur []int32
	// nodePhase caches each attached node's resolved active phase, valid
	// until phaseRefreshAt; between transitions the injection loop then
	// costs the same as the pre-workload single-pattern path.
	nodePhase      []nodePhase
	phaseRefreshAt int64

	// per-cycle scratch: one bit per output/input port (the 63-port
	// activity-mask limit guarantees the fault-drop sink's bit Topo.Ports
	// still fits), cleared with two stores instead of two slice walks.
	portSent  uint64 // output port already transmitted this cycle
	inputUsed uint64 // input port already read this cycle

	// rrCycle/rrVal memoize cycle % len(in) for the claim rotation, so
	// consecutive active cycles derive the next offset with an add and a
	// wrap instead of a 64-bit division. The value equals cycle % len(in)
	// exactly, whatever cycles were skipped in between.
	rrCycle int64
	rrVal   int64

	// plans caches, per input (port, VC), the static geometry of the
	// buffered head's routing decision (see core.Plan): built when a new
	// packet reaches the front, replayed every retry cycle without
	// touching the packet, and invalidated by head changes
	// (vcBuffer.headSeq) or routing-table recomputations (Sim.routeEpoch).
	// Flat over the router's input VCs; planOff[port] is port's base.
	plans   []core.Plan
	planOff []int32
	// pktSize caches Config.PacketPhits (every packet has this size) and
	// needHeadFull whether the mechanism consults HeadFullyArrived (OFAR's
	// store-and-forward ring) — the only case that must touch the head
	// entry on every retry.
	pktSize      int
	needHeadFull bool

	// curQueueOcc/Cap/HeadFull describe the input buffer of the packet
	// currently being routed (set around each alg.Route call; see
	// CurrentQueue and HeadFullyArrived).
	curQueueOcc int
	curQueueCap int
	curHeadFull bool

	pktSeq int64 // per-router packet id sequence

	lastDeliveryCycle int64
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
		in: r.in, out: r.out, routeRand: r.routeRand, nodeRand: r.nodeRand,
		sheet: r.sheet, prog: r.prog, pkts: r.pkts,
		arrivals: r.arrivals, claimVCs: r.claimVCs, phaseCur: r.phaseCur, nodePhase: r.nodePhase,
		plans: r.plans, planOff: r.planOff, pktSize: r.pktSize,

		flow:         flow,
		needHeadFull: e.cfg.Spec.UsesHeadArrival(),
	}
	r.routeRand.Seed(seed, uint64(r.id)*2+1)
	for k, nr := range r.nodeRand {
		nr.Seed(seed, uint64(e.topo.NodeID(r.id, k))*2+2_000_000)
	}
	for i := range r.in {
		for v := range r.in[i].vcs {
			r.in[i].vcs[v].reset()
		}
	}
	for i := range r.out {
		op := &r.out[i]
		for v := range op.credits {
			op.credits[v] = op.capacity
		}
		clear(op.transfers)
		op.activeVCs, op.rr = 0, 0
		if op.link != nil {
			op.link.reset()
		}
	}
	for i := range r.plans {
		r.plans[i].Invalidate()
	}
	clear(r.claimVCs)
	clear(r.phaseCur)
	clear(r.nodePhase)
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
	return op.credits[vc] >= r.flow.claimNeed(int32(size))
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
	return op.credits[vc] >= r.flow.claimNeed(int32(size))
}

// Occupancy implements core.View.
func (r *router) Occupancy(port, vc int) int {
	op := &r.out[port]
	if op.link == nil {
		return 0
	}
	return int(op.capacity - op.credits[vc])
}

// MinState implements core.View: Occupancy, CanClaim and CanStart of one
// output in a single dispatch — the port struct is read once.
func (r *router) MinState(port, vc, size int) (occ int, claim, start bool) {
	op := &r.out[port]
	alive := (r.deadPorts>>uint(port))&1 == 0
	if op.link == nil {
		return 0, alive && (op.activeVCs>>uint(vc))&1 == 0, alive
	}
	c := op.credits[vc]
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
	c := op.credits[vc]
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

// step advances the router by one cycle.
func (r *router) step(cycle int64) {
	r.parity = uint8(cycle & 1)
	if pm, cm := r.arrivals.take(cycle); pm|cm != 0 {
		r.absorb(cycle, pm, cm)
	}
	// Injection must run every cycle regardless of activity — the traffic
	// process consumes its per-node RNG streams unconditionally, and
	// skipping a draw would change every subsequent decision.
	empty := r.occupied == 0
	r.inject(cycle)
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
		if pkt == nil {
			panic(fmt.Sprintf("engine: phit arrival bit without a phit at router %d in port %d", r.id, i))
		}
		r.prog.inflight--
		buf := &ip.vcs[vc]
		if buf.pushPhit(pkt) {
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
		op.credits[vc]++
		if op.credits[vc] > op.capacity {
			panic(fmt.Sprintf("engine: credit overflow at router %d out port %d vc %d (%d > %d)",
				r.id, i, vc, op.credits[vc], op.capacity))
		}
	}
	// Credit arrivals change the occupancy the Piggybacking bits
	// summarize; schedule a refresh of both table buffers.
	if r.eng.pbEnabled {
		r.pbCooldown = 2
	}
}

// nodePhase is one attached node's cached view of its active workload
// phase (see router.refreshPhases).
type nodePhase struct {
	pattern traffic.Pattern
	process traffic.Process
	phase   int32
	idle    bool // no job, or the job's bounded schedule expired
	finite  bool
}

const noNextChange = int64(^uint64(0) >> 1)

// refreshPhases re-resolves every attached node's active phase and
// schedules the next refresh at the earliest upcoming transition of the
// jobs this router touches. Single-phase workloads therefore refresh once
// and never again, keeping the per-cycle injection cost at the
// pre-workload level.
func (r *router) refreshPhases(cycle int64) {
	e := r.eng
	w := e.workload
	next := noNextChange
	for k := 0; k < e.topo.H; k++ {
		np := &r.nodePhase[k]
		node := e.topo.NodeID(r.id, k)
		ji := w.JobOf(node)
		if ji < 0 {
			np.idle = true
			continue
		}
		pi, active := w.PhaseAt(ji, cycle, &r.phaseCur[ji])
		np.idle = !active
		if active {
			ph := &w.Jobs[ji].Phases[pi]
			np.pattern = ph.Pattern
			np.process = ph.Process
			np.phase = int32(w.PhaseID(ji, pi))
			np.finite = ph.Process.Finite()
		}
		if nc := w.NextChange(ji, cycle); nc >= 0 && nc < next {
			next = nc
		}
	}
	r.phaseRefreshAt = next
}

// inject asks each node's active workload phase for new packets and queues
// them. Nodes outside every job stay idle; for all others the phase's
// process draws from the node's RNG stream every cycle, so a one-phase
// workload consumes randomness exactly like the classic pattern+process
// pair did.
func (r *router) inject(cycle int64) {
	if cycle >= r.phaseRefreshAt {
		r.refreshPhases(cycle)
	}
	e := r.eng
	base := e.topo.EjectPortBase()
	for k := 0; k < e.topo.H; k++ {
		np := &r.nodePhase[k]
		if np.idle {
			continue
		}
		node := e.topo.NodeID(r.id, k)
		rnd := r.nodeRand[k]
		if !np.process.Generate(node, cycle, rnd) {
			continue
		}
		if r.parked {
			// The node's router is dead: the generation event is
			// suppressed at the source. It still consumes the process
			// (finite bursts complete) and counts toward progress, so
			// conservation holds as generated == injected + lost +
			// suppressed and drain detection keeps working.
			r.sheet.RecordSuppressed(cycle, int(np.phase))
			np.process.Consume(node)
			r.prog.generated++
			continue
		}
		port := base + k
		q := &r.in[port].vcs[0]
		if !q.hasSpaceFor(int32(e.cfg.PacketPhits)) {
			if !np.finite {
				r.sheet.RecordInjectionLost(cycle, int(np.phase))
			}
			continue // finite processes retry next cycle
		}
		pkt := r.pkts.get()
		pkt.ID = int64(r.id)<<32 | r.pktSeq
		r.pktSeq++
		pkt.Size = int32(e.cfg.PacketPhits)
		pkt.Phase = np.phase
		pkt.CreatedAt = cycle
		pkt.InjectedAt = -1
		dst := np.pattern.Dest(node, rnd)
		pkt.St.Init(e.topo, node, dst)
		q.pushWholePacket(pkt)
		r.occupied++
		r.prog.occ++
		if !q.claimed {
			r.markClaimable(port, 0)
		}
		np.process.Consume(node)
		r.sheet.RecordInjected(cycle, int(np.phase))
		r.prog.generated++
		r.prog.live++
	}
}

// continueTransfers moves one phit per output port among its active
// transfers, respecting the one-phit-per-input-port crossbar constraint.
// Only ports in the xferPorts active set are visited; bit order matches the
// ascending port order of the exhaustive scan it replaces.
func (r *router) continueTransfers(cycle int64) {
	for m := r.xferPorts; m != 0; m &= m - 1 {
		p := bits.TrailingZeros64(m)
		op := &r.out[p]
		n := len(op.transfers)
		for i := 0; i < n; i++ {
			vc := op.rr + i
			if vc >= n {
				vc -= n
			}
			if (op.activeVCs>>uint(vc))&1 == 0 {
				continue
			}
			if r.trySendPhit(cycle, p, vc) {
				op.rr = vc + 1
				break
			}
		}
	}
}

// trySendPhit attempts to move one phit of the transfer on (port, vc).
// It returns true if a phit moved.
func (r *router) trySendPhit(cycle int64, port, vc int) bool {
	op := &r.out[port]
	t := &op.transfers[vc]
	if (r.portSent>>uint(port))&1 != 0 || (r.inputUsed>>uint(t.inPort))&1 != 0 {
		return false
	}
	buf := &r.in[t.inPort].vcs[t.inVC]
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
			if op.credits[vc] <= 0 {
				return false
			}
			op.credits[vc]--
		}
		op.link.sendPhit(cycle, t.pkt, vc)
		r.prog.inflight++
		if op.global {
			r.sheet.GlobalLinkPhits++
		} else {
			r.sheet.LocalLinkPhits++
		}
	}
	pkt, tail := buf.takePhit()
	r.portSent |= 1 << uint(port)
	r.inputUsed |= 1 << uint(t.inPort)
	r.prog.moved++
	// The phit left the input buffer: return a credit upstream.
	if up := r.in[t.inPort].link; up != nil {
		up.sendCredit(cycle, int(t.inVC))
		r.prog.inflight++
	}
	if tail {
		t.pkt = nil
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
func (r *router) dropPacket(cycle int64, pkt *Packet) {
	r.sheet.RecordFaultDrop(cycle, int(pkt.Phase))
	r.prog.live--
	r.pkts.put(pkt)
}

// deliver finalizes a packet at its ejection port.
func (r *router) deliver(cycle int64, pkt *Packet) {
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
	r.pkts.put(pkt)
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
	rr := r.claimRotation(cycle)
	// Bits >= rr first, then the wrapped-around remainder.
	hi := r.claimPorts >> rr << rr
	for m := hi; m != 0; m &= m - 1 {
		r.claimPort(cycle, bits.TrailingZeros64(m))
	}
	for m := r.claimPorts &^ hi; m != 0; m &= m - 1 {
		r.claimPort(cycle, bits.TrailingZeros64(m))
	}
}

// claimRotation returns cycle % len(in) — the claim-arbitration offset —
// through a memoized increment: consecutive active cycles pay an add and a
// conditional subtract instead of a 64-bit division, and larger gaps (idle
// skips) fall back to the division with an identical result.
func (r *router) claimRotation(cycle int64) uint {
	n := int64(len(r.in))
	d := cycle - r.rrCycle
	r.rrCycle = cycle
	if d >= 0 && d < n {
		v := r.rrVal + d
		if v >= n {
			v -= n
		}
		r.rrVal = v
		return uint(v)
	}
	v := cycle % n
	r.rrVal = v
	return uint(v)
}

// claimPort tries to claim every claimable head of input port p.
func (r *router) claimPort(cycle int64, p int) {
	for vcm := r.claimVCs[p]; vcm != 0; vcm &= vcm - 1 {
		vc := bits.TrailingZeros16(vcm)
		buf := &r.in[p].vcs[vc]
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
	buf := &r.in[port].vcs[vc]
	e := r.eng
	size := r.pktSize
	plan := &r.plans[int(r.planOff[port])+vc]
	if plan.HeadSeq != buf.headSeq || plan.Epoch != e.routeEpoch {
		entry := buf.headEntry()
		pkt := entry.pkt
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
			r.curHeadFull = entry.arrived == pkt.Size
			r.alg.BuildPlan(r, &pkt.St, r.id, size, r.routeRand, plan)
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
			r.curHeadFull = buf.headEntry().arrived == int32(size)
		}
		dec = r.alg.RoutePlanned(r, plan, size, r.routeRand)
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
	pkt := buf.headEntry().pkt
	if !plan.Eject && !dec.Drop {
		core.CommitHop(e.topo, &pkt.St, r.id, dec)
	}
	op := &r.out[outPortIdx]
	op.transfers[outVC] = transfer{inPort: int16(port), inVC: int8(vc), pkt: pkt}
	op.activeVCs |= 1 << uint(outVC)
	r.xferPorts |= 1 << uint(outPortIdx)
	if op.link != nil && r.flow == VCT {
		// Atomic whole-packet credit reservation: downstream free space
		// stays a whole number of packet slots, which the bubble flow
		// control of OFAR's escape ring (and VCT correctness in
		// general) depends on. Cut-through streaming then never blocks
		// on credits mid-packet.
		op.credits[outVC] -= pkt.Size
		if op.credits[outVC] < 0 {
			panic(fmt.Sprintf("engine: VCT claim without sufficient credits at router %d out port %d vc %d (deficit %d)",
				r.id, outPortIdx, outVC, -op.credits[outVC]))
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
		for v := range op.credits {
			occ += op.capacity - op.credits[v]
			cap += op.capacity
		}
		k := topo.GlobalChannelOfPort(idx, port)
		next[k] = float64(occ) >= e.cfg.Routing.PBThreshold*float64(cap)
	}
}
