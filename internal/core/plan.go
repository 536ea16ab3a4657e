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
// The engine keeps one Plan per input (port, VC) and one bit beside it,
// cleared when the buffer's head changes or when fault events reach the
// routing view — the fabric-manager model: tables are recomputed on
// topology changes, and the per-packet data path only consults them.
// Crucially, replay never touches the Packet, whose cache lines dominated
// the old per-cycle re-evaluation.
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
// EjectPort and the eject and dead-destination verdicts belong to the
// engine (SetEject, SetDestDead); the remaining fields are written by
// BuildPlan and read by RoutePlanned. It carries no cache key: whether a
// plan is still valid is the engine's to track. It holds no slices, so a
// plan's first build allocates nothing: the own-global candidates are a
// bitmask over global ports, and the local detours name a shared
// Tables.localCands row plus a keep-mask over its entries. Ports and
// in-group indices are int8 and the verdicts one flags word (NewTables
// caps h at 16: at most 63 ports and 32 routers per group), so two plans
// share a cache line.
type Plan struct {
	own       uint32 // bit j: own global port gpb+j is a Valiant candidate, dead/destination filtered
	localKeep uint32 // bit i: entry i of detour row localRow survives the fault view

	g, dstGroup int16 // this router's group; the destination group
	localRow    int16 // the Tables.localCands row of the local detours
	flags       planFlags

	// EjectPort is the port an ejecting head leaves through (see SetEject).
	EjectPort int8

	minPort, ringPort int8
	exitIdx           int8
	idx               int8 // this router's in-group index
	prevIdx           int8 // previous router's index for the pair rule; -1

	minVC, gvc, lvc, ringVC int8
	mvcs                    [2]int8 // local-misroute VCs in preference order
	nmvcs                   int8
}

// planFlags holds a plan's verdicts, one bit each.
type planFlags uint16

const (
	// planEject marks a head that has reached its destination router; it
	// leaves through EjectPort with no routing evaluation. Maintained by
	// the engine (core's BuildPlan is never called for ejecting heads).
	planEject planFlags = 1 << iota
	// planDestDead marks a head whose destination router has failed
	// entirely under the routing view: no route can deliver it, so the
	// engine drops it without a routing evaluation. Engine-owned, like
	// planEject.
	planDestDead
	planForced      // a committed post-misroute hop: no adaptivity
	planDropNow     // statically unroutable under the current fault view
	planDeadMin     // minimal route dead (channel or next local leg)
	planCanGlobal   // global misrouting is armed
	planCanLocal    // local misrouting is armed
	planDropIfEmpty // deadMin and no candidate can ever materialize
	planBudgetOK    // a redirect hop still fits the local-hop budget
	planOnEscape    // OFAR: head already rides the escape ring
	planRingDead    // OFAR: the ring output is dead under the fault view
	planRingSevered // OFAR: the ring successor router itself is dead
)

// is reports whether every bit of f is set.
func (p *Plan) is(f planFlags) bool { return p.flags&f == f }

// set sets or clears the bits of f.
func (p *Plan) set(f planFlags, on bool) {
	if on {
		p.flags |= f
	} else {
		p.flags &^= f
	}
}

// SetEject makes p the plan of a head that has reached its destination
// router and leaves through port.
func (p *Plan) SetEject(port int) { *p = Plan{EjectPort: int8(port), flags: planEject} }

// SetDestDead makes p the plan of a head whose destination router failed.
func (p *Plan) SetDestDead() { *p = Plan{flags: planDestDead} }

// Eject reports whether p is an ejection plan (see SetEject).
func (p *Plan) Eject() bool { return p.is(planEject) }

// DestDead reports whether p drops a head whose destination failed (see
// SetDestDead).
func (p *Plan) DestDead() bool { return p.is(planDestDead) }

// reset empties the plan; prevIdx -1 names no previous router.
func (p *Plan) reset() { *p = Plan{prevIdx: -1} }

// BuildPlan implements Algorithm for the adaptive mechanisms.
func (a *adaptive) BuildPlan(v View, st *PacketState, router, size int, r *rng.PCG, p *Plan) {
	t := a.tab
	p.reset()
	idx := t.rt.IndexOf(router)
	g := t.rt.GroupOf(router)
	faulty := v.Faulty()
	p.idx, p.g, p.dstGroup = int8(idx), int16(g), int16(st.DstGroup)

	if st.PendingLocal >= 0 {
		p.set(planForced, true)
		p.minPort = int8(t.rt.LocalPortTo(idx, int(st.PendingLocal)))
		p.minVC = int8(a.localVC(st))
		if faulty && v.LinkDown(int(p.minPort)) {
			p.set(planDropNow, true) // a forced hop cannot re-route
		}
		return
	}

	minPort, minGlobal, exitIdx := t.minimalHop(st, idx, g)
	p.minPort, p.exitIdx = int8(minPort), int8(exitIdx)
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
	p.set(planDeadMin, deadRoute || deadLocal)

	p.gvc, p.lvc = int8(a.globalVC(st)), int8(a.localVC(st))
	var vcBuf [2]int
	vcs := a.misrouteVCs(st, vcBuf[:0])
	p.nmvcs = int8(len(vcs))
	for i, vc := range vcs {
		p.mvcs[i] = int8(vc)
	}

	canGlobal := a.globalMisrouteAllowed(st)
	p.set(planCanGlobal, canGlobal)
	if canGlobal {
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
		p.set(planBudgetOK, int(st.LocalHopsInGroup) < maxLocalHopsPerGroup)
		if t.pairOK != nil && st.PrevRouter >= 0 {
			p.prevIdx = int8(t.rt.IndexOf(int(st.PrevRouter)))
		}
	}
	// Local misrouting cannot restore a dead group channel (each group
	// pair has exactly one), so it stays unarmed for deadRoute.
	canLocal := !minGlobal && !deadRoute && a.localMisrouteAllowed(st)
	p.set(planCanLocal, canLocal)
	structural := 0
	if canLocal {
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
	if deadRoute || deadLocal {
		p.set(planDropIfEmpty, !(canLocal && structural > 0) &&
			!(canGlobal && a.liveGlobalDetour(v, st, idx, g)))
	}
}

// RoutePlanned implements Algorithm for the adaptive mechanisms: the
// dynamic replay of a built plan — claimability, the credit-based trigger,
// remote-channel sampling and the uniform candidate pick.
func (a *adaptive) RoutePlanned(v View, p *Plan, size int, r *rng.PCG) Decision {
	minPort, minVC := int(p.minPort), int(p.minVC)
	if p.is(planForced) {
		if p.is(planDropNow) {
			return dropDecision
		}
		if _, claim, _ := v.MinState(minPort, minVC, size); claim {
			return Decision{Port: minPort, VC: minVC, Kind: KindMin, NewValiant: -1, LocalFinal: -1}
		}
		return waitDecision
	}
	minOcc, minClaim, minStart := v.MinState(minPort, minVC, size)
	deadMin := p.is(planDeadMin)
	if !deadMin && minClaim {
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
	if deadMin {
		limit = math.Inf(1)
	}
	a.cands = a.cands[:0]
	if p.is(planCanGlobal) && (deadMin || !minStart) {
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
		if p.is(planBudgetOK) {
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
	if p.is(planCanLocal) {
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
		if deadMin && p.is(planDropIfEmpty) {
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
	if !st.InjDecided && router == int(st.SrcRouter) {
		o.decideInjection(v, st, router, r)
	}
	t := o.tab
	idx := t.rt.IndexOf(router)
	g := t.rt.GroupOf(router)
	port, _, _ := t.minimalHop(st, idx, g)
	p.minPort = int8(port)
	p.minVC = int8(st.GlobalHops) // local hop after g globals uses lVC_{g+1}
	if v.Faulty() {
		// None of the three adapts in transit: a failed link on the
		// (already fixed) route leaves the packet unroutable.
		if tg := st.targetGroup(); g != tg && v.RouteDown(g, tg) {
			p.set(planDropNow, true)
			return
		}
		if v.LinkDown(port) {
			p.set(planDropNow, true)
		}
	}
}

// RoutePlanned implements Algorithm for the oblivious mechanisms.
func (o *oblivious) RoutePlanned(v View, p *Plan, size int, r *rng.PCG) Decision {
	if p.is(planDropNow) {
		return dropDecision
	}
	minPort, minVC := int(p.minPort), int(p.minVC)
	if _, claim, _ := v.MinState(minPort, minVC, size); !claim {
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
	p.ringPort = int8(ringPort)
	p.ringVC = ofarEscapeLocalVC
	if o.cfg.Topo.IsGlobalPort(ringPort) {
		p.ringVC = ofarEscapeGlobalVC
	}
	ringDead := v.Faulty() && v.LinkDown(ringPort)
	p.set(planOnEscape, st.OnEscape)
	p.set(planRingDead, ringDead)
	p.set(planRingSevered, ringDead && v.PortDead(ringPort))
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
	if p.is(planRingDead) {
		// The ring is severed here; with the adaptive routes dead too,
		// the packet has no surviving way out. When the severing fault is
		// the ring successor router itself, shed blocked packets even if
		// adaptive routes survive: the ring cannot circulate through a
		// dead router, so this edge is the drain that keeps the bubble
		// argument — and with it the rest of the escape subnetwork —
		// alive for everyone upstream.
		if adaptiveDead || p.is(planRingSevered) {
			return dropDecision
		}
		return waitDecision
	}
	port, vc := int(p.ringPort), int(p.ringVC)
	if _, claim, _ := v.MinState(port, vc, size); !claim {
		return waitDecision
	}
	// Bubble condition: entering the ring requires space for two
	// packets downstream; continuing along it requires one.
	if !p.is(planOnEscape) {
		if _, _, start := v.MinState(port, vc, 2*size); !start {
			return waitDecision
		}
	}
	return Decision{Port: port, VC: vc, Kind: KindEscape, NewValiant: -1, LocalFinal: -1}
}
