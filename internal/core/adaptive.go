// adaptive.go implements the three in-transit adaptive mechanisms of the
// paper — PAR-6/2, RLM and OLM — on top of one shared decision procedure.
//
// Every cycle the head packet prefers its minimal output; when that output
// cannot be claimed, non-minimal candidates are collected and one is chosen
// uniformly at random among those whose downstream occupancy is below
// threshold × occupancy(minimal output) and that are claimable now (the
// paper's credit-based misrouting trigger). Candidates are:
//
//   - global misrouting — only in the source group, before any global hop,
//     for inter-group packets: the router's own global ports, plus a few
//     sampled remote channels reached through one local hop (yielding the
//     l-l-g shapes of PAR);
//   - local misrouting — only in the intermediate and destination groups
//     (the destination group includes intra-group traffic): a detour to a
//     neighbor k followed by a forced hop to the local exit j.
//
// The decision path is table-driven: minimal hops, detour candidate lists
// (with RLM's parity restriction pre-applied) and pair-rule queries all
// come from the shared core.Tables, and candidates accumulate in a
// preallocated per-instance arena. Candidate order and RNG consumption match
// the recomputing implementation exactly, so decisions are bit-identical
// (TestPlanRouteEquivalence holds the two together).
//
// The mechanisms differ in their virtual-channel discipline and in the
// constraint on local misrouting:
//
//	PAR-6/2  i-th local hop in the path class uses lVC_{2·globals+hops-in-group},
//	         globals use gVC_i: strictly ascending, 6/2 VCs, no route
//	         restriction, VCT or WH.
//	RLM      lVC_{globals+1} for every local hop of a group visit, with the
//	         parity-sign pair restriction (Table I): 3/2 VCs, VCT or WH.
//	OLM      ascending escape VCs lVC1<gVC1<lVC2<gVC2<lVC3; local misroute
//	         hops opportunistically reuse lower VCs (source/intermediate:
//	         lVC1; destination: lVC2 or lVC1) so that a strictly ascending
//	         escape path always remains: 3/2 VCs, VCT only.
package core

import "repro/internal/rng"

// maxLocalHopsPerGroup is the per-supernode local hop budget (the longest
// route is l-l-g-l-l-g-l-l).
const maxLocalHopsPerGroup = 2

type adaptive struct {
	cfg  Config
	spec Spec
	tab  *Tables

	cands []Decision // scratch arena, reused across calls (one instance per goroutine)
}

func newAdaptive(spec Spec, tab *Tables) *adaptive {
	// The arena's worst case: every own global port, every remote sample,
	// and every local detour of a full candidate list.
	return &adaptive{
		cfg:   tab.cfg,
		spec:  spec,
		tab:   tab,
		cands: make([]Decision, 0, tab.h+tab.cfg.RemoteCandidates+tab.rpg),
	}
}

// localVC returns the VC for a minimal (or forced) local hop.
func (a *adaptive) localVC(st *PacketState) int {
	switch a.spec {
	case PAR62:
		// Strictly ascending: source group lVC1/lVC2, intermediate
		// lVC3/lVC4, destination lVC5/lVC6.
		return 2*int(st.GlobalHops) + int(st.LocalHopsInGroup)
	case OFAR:
		// Two adaptive local VCs; deadlock freedom comes from the
		// escape ring, not VC ordering.
		if st.GlobalHops >= 1 {
			return 1
		}
		return 0
	case OLM:
		// Escape discipline; the only forced hop that must climb above
		// the escape level is the post-misroute hop of intra-group
		// traffic (misroute on lVC1, delivery hop on lVC2).
		if st.PendingLocal >= 0 && st.GlobalHops == 0 && st.CurGroup == st.DstGroup {
			return 1
		}
		return int(st.GlobalHops)
	default: // RLM and variants
		return int(st.GlobalHops)
	}
}

// globalVC returns the VC for the next global hop: gVC_{globals+1}
// (OFAR keeps one adaptive global VC and reserves the other for the ring).
func (a *adaptive) globalVC(st *PacketState) int {
	if a.spec == OFAR {
		return 0
	}
	return int(st.GlobalHops)
}

// misrouteVCs appends the candidate VCs for a local misroute hop in
// preference order.
func (a *adaptive) misrouteVCs(st *PacketState, buf []int) []int {
	switch a.spec {
	case PAR62:
		return append(buf, 2*int(st.GlobalHops)+int(st.LocalHopsInGroup))
	case OFAR:
		return append(buf, a.localVC(st))
	case OLM:
		// Any VC strictly below the escape VC of the *next* mandatory
		// hop keeps an ascending escape available. In the destination
		// group after two global hops that is lVC2 or lVC1 (the
		// paper's Figure 3 route c); everywhere else lVC1.
		if st.CurGroup == st.DstGroup && st.GlobalHops >= 2 {
			return append(buf, 1, 0)
		}
		return append(buf, 0)
	default: // RLM: same VC as every local hop of this group visit
		return append(buf, int(st.GlobalHops))
	}
}

// localMisrouteAllowed reports whether st may take a local misroute in its
// current group: intermediate and destination supernodes only (the paper
// follows OFAR here), one per group visit, and only from the first local
// hop of the visit so that the detour plus the forced exit hop fit the
// two-hop budget.
func (a *adaptive) localMisrouteAllowed(st *PacketState) bool {
	if st.LocalMisInGroup || st.LocalHopsInGroup != 0 {
		return false
	}
	inDst := st.CurGroup == st.DstGroup
	intermediate := st.GlobalHops >= 1 && !inDst
	return inDst || intermediate
}

// globalMisrouteAllowed reports whether st may still commit a Valiant
// intermediate group: in the source group, before any global hop, for
// inter-group packets, at most once, and not while a forced hop is pending.
func (a *adaptive) globalMisrouteAllowed(st *PacketState) bool {
	return st.GlobalHops == 0 &&
		st.ValiantGroup < 0 &&
		st.GlobalMisCount == 0 &&
		st.CurGroup != st.DstGroup &&
		st.PendingLocal < 0
}

// Route implements Algorithm as one-shot build-plus-replay, so the
// recomputing entry point and the engine's cached-plan path share a single
// decision procedure. The misrouting trigger lives in RoutePlanned: a
// candidate is eligible when its normalized downstream occupancy is below
// the threshold percentage of the congestion seen on the minimal route —
// the larger of the minimal output's downstream occupancy and the backlog
// of the queue the packet sits in (a saturated link keeps its downstream
// buffer drained; the wire is the bottleneck, as in ADVL and the ADVG+h
// transit links, so the queue the packet is stuck in carries the signal).
//
// The two misrouting kinds arm differently:
//
//   - local misrouting arms whenever the minimal output cannot be
//     claimed;
//   - global misrouting (committing a Valiant detour that doubles the
//     packet's global-link usage) arms only when the minimal output is
//     credit-congested, mirroring PAR's "divert when the minimal global
//     link is saturated".
//
// A dead minimal route lifts the occupancy limit entirely: the route is
// not congested, it is gone, and recomputed routing tables would not
// offer it at all.
func (a *adaptive) Route(v View, st *PacketState, router, size int, r *rng.PCG) Decision {
	var p Plan
	a.BuildPlan(v, st, router, size, r, &p)
	return a.RoutePlanned(v, &p, size, r)
}

// liveGlobalDetour reports whether some intermediate group the mechanism
// could still commit to has both detour legs alive — mirroring the static
// filters of globalCandidates, so a packet only drops when no candidate
// can ever materialize.
func (a *adaptive) liveGlobalDetour(v View, st *PacketState, idx, g int) bool {
	t := a.tab
	for tg := 0; tg < t.groups; tg++ {
		if tg == g || tg == int(st.DstGroup) {
			continue
		}
		if v.RouteDown(g, tg) || v.RouteDown(tg, int(st.DstGroup)) {
			continue
		}
		owner := t.rt.OwnerOf(t.rt.GroupOffset(g, tg))
		if owner == idx {
			return true // this router's own live channel
		}
		// Remote channels are only reachable through a redirect hop, and
		// only ever sampled when remote candidates are enabled.
		if a.cfg.RemoteCandidates <= 0 || st.LocalHopsInGroup >= maxLocalHopsPerGroup {
			continue
		}
		if v.LocalDown(idx, owner) {
			continue
		}
		if t.pairOK != nil && st.PrevRouter >= 0 {
			prev := t.rt.IndexOf(int(st.PrevRouter))
			if !t.pairAllowed(prev, idx, owner) {
				continue
			}
		}
		return true
	}
	return false
}

// eligible applies the trigger to one output: claimable right now and
// normalized occupancy below the limit. The claim bit is the cheaper test,
// so it goes first.
func (a *adaptive) eligible(v View, port, vc, size int, limit float64) bool {
	occ, claim, _ := v.MinState(port, vc, size)
	return claim && a.tab.fracAt(v, port, vc, occ) < limit
}
