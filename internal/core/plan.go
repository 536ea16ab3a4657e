// plan.go is the per-head routing plan: the static part of one head
// packet's routing decision, computed once when the packet reaches the
// front of its input VC and replayed every cycle until the head is
// claimed. A waiting head's PacketState cannot change (CommitHop runs only
// when the head is claimed, and the injection-time choices are made during
// the build), and the fault view is constant between routing-table
// recomputations — so everything except downstream occupancy, claimability
// and the random draws is decision-invariant and needs no re-derivation:
//
//   - the minimal output (port, VC, global?) and the forced-hop port;
//   - the eject port for arrived packets;
//   - whether global/local misrouting is armed, the misroute VCs, and the
//     full candidate geometry: own global ports (destination and dead
//     channels filtered out) and the pair-restricted local detour list
//     (dead links filtered out);
//   - the drop verdict for heads whose candidates can never materialize.
//
// The engine keeps one Plan per input (port, VC) and invalidates it when
// the buffer's head changes (vcBuffer.headSeq) or when fault events
// reach the routing view (the engine's route epoch) — the
// fabric-manager model: tables are recomputed on topology changes, and the
// per-packet data path only consults them. Crucially, replay never touches
// the Packet, whose cache lines dominated the old per-cycle re-evaluation.
//
// Replay order and RNG consumption are exactly those of the recomputing
// procedure, so decisions are bit-identical; Algorithm.Route is itself
// implemented as build-plus-replay, and TestPlanRouteEquivalence pins the
// plan path to an independently recomputing reference.
package core

import (
	"math"
	"math/bits"

	"repro/internal/rng"
)

// Plan is the cached static geometry of one waiting head's decision.
// HeadSeq, Epoch, Eject, EjectPort and DestDead belong to the engine's
// cache bookkeeping; the remaining fields are written by BuildPlan and read
// by RoutePlanned. It holds no slices, so it fits one cache line and a
// plan's first build allocates nothing: the own-global candidates are a
// bitmask over global ports, and the local detours name a shared
// Tables.localCands row plus a keep-mask over its entries.
type Plan struct {
	// HeadSeq is the vcBuffer head sequence number the plan was built
	// for; Epoch is the fault-view epoch. The engine rebuilds on any
	// mismatch. Both belong to the caller — core never reads them.
	HeadSeq int64
	Epoch   uint64

	own       uint32 // bit j: own global port gpb+j is a Valiant candidate, dead/destination filtered
	localKeep uint32 // bit i: entry i of detour row localRow survives the fault view

	g, dstGroup int16 // this router's group; the destination group
	localRow    int16 // the Tables.localCands row of the local detours
	// EjectPort is the port an ejecting head leaves through (see Eject).
	EjectPort int16

	minPort, ringPort int16
	exitIdx           int16
	idx               int16 // this router's in-group index
	prevIdx           int16 // previous router's index for the pair rule; -1

	minVC, gvc, lvc, ringVC int8
	mvcs                    [2]int8 // local-misroute VCs in preference order
	nmvcs                   int8

	// Eject marks a head that has reached its destination router; it
	// leaves through EjectPort with no routing evaluation. Maintained by
	// the engine (core's BuildPlan is never called for ejecting heads).
	Eject bool
	// DestDead marks a head whose destination router has failed entirely
	// under the routing view: no route can deliver it, so the engine
	// drops it without a routing evaluation. Engine-owned, like Eject.
	DestDead bool

	forced      bool // a committed post-misroute hop: no adaptivity
	dropNow     bool // statically unroutable under the current fault view
	minGlobal   bool
	deadMin     bool // minimal route dead (channel or next local leg)
	canGlobal   bool
	canLocal    bool
	dropIfEmpty bool // deadMin and no candidate can ever materialize
	budgetOK    bool // a redirect hop still fits the local-hop budget
	onEscape    bool // OFAR: head already rides the escape ring
	ringDead    bool // OFAR: the ring output is dead under the fault view
	ringSevered bool // OFAR: the ring successor router itself is dead
}

// reset clears the decision fields. The engine-owned cache keys are left
// alone.
func (p *Plan) reset() {
	*p = Plan{HeadSeq: p.HeadSeq, Epoch: p.Epoch, prevIdx: -1}
}

// Invalidate returns the plan to its zero, never-valid state (the engine's
// epochs start at 1): what a re-initialised simulation does to every
// cached plan of the previous run.
func (p *Plan) Invalidate() { *p = Plan{} }

// BuildPlan implements Algorithm for the adaptive mechanisms.
func (a *adaptive) BuildPlan(v View, st *PacketState, router, size int, r *rng.PCG, p *Plan) {
	t := a.tab
	p.reset()
	idx := t.rt.IndexOf(router)
	g := t.rt.GroupOf(router)
	faulty := v.Faulty()
	p.idx, p.g, p.dstGroup = int16(idx), int16(g), int16(st.DstGroup)

	if st.PendingLocal >= 0 {
		p.forced = true
		p.minPort = int16(t.rt.LocalPortTo(idx, int(st.PendingLocal)))
		p.minVC = int8(a.localVC(st))
		if faulty && v.LinkDown(int(p.minPort)) {
			p.dropNow = true // a forced hop cannot re-route
		}
		return
	}

	minPort, minGlobal, exitIdx := t.minimalHop(st, idx, g)
	p.minPort, p.minGlobal, p.exitIdx = int16(minPort), minGlobal, int16(exitIdx)
	minVC := a.localVC(st)
	if minGlobal {
		minVC = a.globalVC(st)
	}
	p.minVC = int8(minVC)

	// Fault state of the minimal route. deadRoute means the group's only
	// channel toward the target group is gone — no local detour can bring
	// it back; deadLocal means just the next local leg is gone, which a
	// local misroute can bypass.
	deadRoute, deadLocal := false, false
	if faulty {
		if tg := st.targetGroup(); g != tg && v.RouteDown(g, tg) {
			deadRoute = true
		} else if v.LinkDown(minPort) {
			if minGlobal {
				deadRoute = true // a dead global minPort is the channel itself
			} else {
				deadLocal = true
			}
		}
	}
	p.deadMin = deadRoute || deadLocal

	p.gvc, p.lvc = int8(a.globalVC(st)), int8(a.localVC(st))
	var vcBuf [2]int
	vcs := a.misrouteVCs(st, vcBuf[:0])
	p.nmvcs = int8(len(vcs))
	for i, vc := range vcs {
		p.mvcs[i] = int8(vc)
	}

	p.canGlobal = a.globalMisrouteAllowed(st)
	if p.canGlobal {
		for j := 0; j < t.h; j++ {
			tg := t.ownTarget(g, idx, j)
			if tg == int(st.DstGroup) {
				continue // that would be the minimal channel
			}
			if faulty && v.RouteDown(tg, int(st.DstGroup)) {
				continue // the detour's second leg is gone
			}
			p.own |= 1 << uint(j)
		}
		p.budgetOK = int(st.LocalHopsInGroup) < maxLocalHopsPerGroup
		if t.pairOK != nil && st.PrevRouter >= 0 {
			p.prevIdx = int16(t.rt.IndexOf(int(st.PrevRouter)))
		}
	}
	// Local misrouting cannot restore a dead group channel (each group
	// pair has exactly one), so it stays unarmed for deadRoute.
	p.canLocal = !minGlobal && !deadRoute && a.localMisrouteAllowed(st)
	structural := 0
	if p.canLocal {
		row := idx*t.rpg + exitIdx
		list := t.localRow(row)
		p.localRow = int16(row)
		p.localKeep = uint32(1)<<uint(len(list)) - 1
		for i, c := range list {
			if faulty && (v.LocalDown(idx, int(c.k)) || v.LocalDown(int(c.k), exitIdx)) {
				p.localKeep &^= 1 << uint(i) // the detour hop or its forced exit is gone
			}
		}
		structural = bits.OnesCount32(p.localKeep)
	}
	if p.deadMin {
		p.dropIfEmpty = !(p.canLocal && structural > 0) &&
			!(p.canGlobal && a.liveGlobalDetour(v, st, idx, g))
	}
}

// RoutePlanned implements Algorithm for the adaptive mechanisms: the
// dynamic replay of a built plan — claimability, the credit-based trigger,
// remote-channel sampling and the uniform candidate pick.
func (a *adaptive) RoutePlanned(v View, p *Plan, size int, r *rng.PCG) Decision {
	minPort, minVC := int(p.minPort), int(p.minVC)
	if p.forced {
		if p.dropNow {
			return dropDecision
		}
		if v.CanClaim(minPort, minVC, size) {
			return Decision{Port: minPort, VC: minVC, Kind: KindMin, NewValiant: -1, LocalFinal: -1}
		}
		return waitDecision
	}
	minOcc, minClaim, minStart := v.MinState(minPort, minVC, size)
	if !p.deadMin && minClaim {
		return Decision{Port: minPort, VC: minVC, Kind: KindMin, NewValiant: -1, LocalFinal: -1}
	}

	// The minimal output is not available this cycle: evaluate the
	// misrouting trigger (see the commentary in adaptive.go; the trigger
	// math here is identical, over the precomputed candidate geometry).
	minFrac := a.tab.fracAt(v, minPort, minVC, minOcc)
	if qOcc, qCap := v.CurrentQueue(); qCap > 0 {
		if f := float64(qOcc) / float64(qCap); f > minFrac {
			minFrac = f
		}
	}
	limit := a.cfg.Threshold * minFrac
	if p.deadMin {
		limit = math.Inf(1)
	}
	a.cands = a.cands[:0]
	if p.canGlobal && (p.deadMin || !minStart) {
		gvc := int(p.gvc)
		for m := p.own; m != 0; m &= m - 1 {
			j := bits.TrailingZeros32(m)
			if port := a.tab.gpb + j; a.eligible(v, port, gvc, size, limit) {
				a.cands = append(a.cands, Decision{
					Port: port, VC: gvc, Kind: KindGlobalMis,
					NewValiant: a.tab.ownTarget(int(p.g), int(p.idx), j), LocalFinal: -1,
				})
			}
		}
		if p.budgetOK {
			t := a.tab
			faulty := v.Faulty()
			lvc := int(p.lvc)
			g, dst, idx := int(p.g), int(p.dstGroup), int(p.idx)
			for i := 0; i < a.cfg.RemoteCandidates; i++ {
				tg := r.Intn(t.groups)
				if tg == g || tg == dst {
					continue
				}
				if faulty && (v.RouteDown(g, tg) || v.RouteDown(tg, dst)) {
					continue // a detour leg is gone
				}
				owner := t.rt.OwnerOf(t.rt.GroupOffset(g, tg))
				if owner == idx {
					continue // own channel, already considered above
				}
				if t.pairOK != nil && p.prevIdx >= 0 &&
					!t.pairAllowed(int(p.prevIdx), idx, owner) {
					continue // restricted 2-hop local combination
				}
				port := t.rt.LocalPortTo(idx, owner)
				if a.eligible(v, port, lvc, size, limit) {
					a.cands = append(a.cands, Decision{
						Port: port, VC: lvc, Kind: KindGlobalMis,
						NewValiant: tg, LocalFinal: -1,
					})
				}
			}
		}
	}
	if p.canLocal {
		exit := int(p.exitIdx)
		list := a.tab.localRow(int(p.localRow))
		for m := p.localKeep; m != 0; m &= m - 1 {
			c := list[bits.TrailingZeros32(m)]
			for mi := 0; mi < int(p.nmvcs); mi++ {
				vc := int(p.mvcs[mi])
				if a.eligible(v, int(c.port), vc, size, limit) {
					a.cands = append(a.cands, Decision{
						Port: int(c.port), VC: vc, Kind: KindLocalMis,
						NewValiant: -1, LocalFinal: exit,
					})
					break
				}
			}
		}
	}
	if len(a.cands) == 0 {
		if p.deadMin && p.dropIfEmpty {
			return dropDecision
		}
		return waitDecision
	}
	return a.cands[r.Intn(len(a.cands))]
}

// BuildPlan implements Algorithm for the oblivious mechanisms. The
// injection-time source-routing choice (Valiant's intermediate group, PB's
// congestion criterion) happens here, exactly where the first Route call
// of the recomputing path made it.
func (o *oblivious) BuildPlan(v View, st *PacketState, router, size int, r *rng.PCG, p *Plan) {
	p.reset()
	if !st.InjDecided && int32(router) == st.SrcRouter {
		o.decideInjection(v, st, router, r)
	}
	t := o.tab
	idx := t.rt.IndexOf(router)
	g := t.rt.GroupOf(router)
	port, _, _ := t.minimalHop(st, idx, g)
	p.minPort = int16(port)
	p.minVC = int8(st.GlobalHops) // local hop after g globals uses lVC_{g+1}
	if v.Faulty() {
		// None of the three adapts in transit: a failed link on the
		// (already fixed) route leaves the packet unroutable.
		if tg := st.targetGroup(); g != tg && v.RouteDown(g, tg) {
			p.dropNow = true
			return
		}
		if v.LinkDown(port) {
			p.dropNow = true
		}
	}
}

// RoutePlanned implements Algorithm for the oblivious mechanisms.
func (o *oblivious) RoutePlanned(v View, p *Plan, size int, r *rng.PCG) Decision {
	if p.dropNow {
		return dropDecision
	}
	minPort, minVC := int(p.minPort), int(p.minVC)
	if !v.CanClaim(minPort, minVC, size) {
		return waitDecision
	}
	return Decision{Port: minPort, VC: minVC, Kind: KindMin, NewValiant: -1, LocalFinal: -1}
}

// BuildPlan implements Algorithm for OFAR: the adaptive plan plus the
// escape-ring statics.
func (o *ofar) BuildPlan(v View, st *PacketState, router, size int, r *rng.PCG, p *Plan) {
	o.adaptive.BuildPlan(v, st, router, size, r, p)
	t := o.tab
	ringPort := t.rt.RingPortOf(t.rt.IndexOf(router))
	p.ringPort = int16(ringPort)
	p.ringVC = ofarEscapeLocalVC
	if o.cfg.Topo.IsGlobalPort(ringPort) {
		p.ringVC = ofarEscapeGlobalVC
	}
	p.onEscape = st.OnEscape
	p.ringDead = v.Faulty() && v.LinkDown(ringPort)
	p.ringSevered = p.ringDead && v.PortDead(ringPort)
}

// RoutePlanned implements Algorithm for OFAR: the adaptive replay with the
// escape-ring fallback under bubble flow control.
func (o *ofar) RoutePlanned(v View, p *Plan, size int, r *rng.PCG) Decision {
	dec := o.adaptive.RoutePlanned(v, p, size, r)
	if !dec.Wait && !dec.Drop {
		return dec
	}
	// Adaptive network blocked (or, under faults, out of surviving
	// adaptive routes): try the ring edge — the ring visits every router,
	// so a live ring can still deliver a packet whose adaptive paths are
	// all dead. Ring hops are store-and-forward: the whole packet must be
	// buffered here first, both for the bubble argument and so a packet
	// circling the ring can never catch its own tail.
	adaptiveDead := dec.Drop
	if !v.HeadFullyArrived() {
		return waitDecision
	}
	if p.ringDead {
		// The ring is severed here; with the adaptive routes dead too,
		// the packet has no surviving way out. When the severing fault is
		// the ring successor router itself, shed blocked packets even if
		// adaptive routes survive: the ring cannot circulate through a
		// dead router, so this edge is the drain that keeps the bubble
		// argument — and with it the rest of the escape subnetwork —
		// alive for everyone upstream.
		if adaptiveDead || p.ringSevered {
			return dropDecision
		}
		return waitDecision
	}
	port, vc := int(p.ringPort), int(p.ringVC)
	if !v.CanClaim(port, vc, size) {
		return waitDecision
	}
	// Bubble condition: entering the ring requires space for two
	// packets downstream; continuing along it requires one.
	if !p.onEscape && !v.CanStart(port, vc, 2*size) {
		return waitDecision
	}
	return Decision{Port: port, VC: vc, Kind: KindEscape, NewValiant: -1, LocalFinal: -1}
}
