// oblivious.go implements the three non-in-transit-adaptive baselines the
// paper compares against:
//
//   - Minimal: always the shortest l-g-l route, VCs lVC1-gVC1-lVC2;
//   - Valiant: a random intermediate group chosen at injection, then
//     minimal, VCs lVC1-gVC1-lVC2-gVC2-lVC3 (global misrouting only);
//   - Piggybacking (PB, Jiang et al. ISCA'09 as used by the paper): a
//     source-adaptive choice between the Minimal and Valiant routes made
//     at injection from broadcast congestion bits of the source group's
//     global channels.
//
// None of the three performs local misrouting; PB and Valiant may send
// intra-group traffic through a remote group (the paper notes this is how
// PB approaches 0.5 phits/node/cycle under pure ADVL traffic).
package core

import "repro/internal/rng"

// oblivious implements Minimal, Valiant and PB, which share their VC
// discipline and differ only in the injection-time choice.
type oblivious struct {
	cfg  Config
	spec Spec
	tab  *Tables
}

// Route implements Algorithm as one-shot build-plus-replay; see BuildPlan
// and RoutePlanned in plan.go for the decision procedure.
func (o *oblivious) Route(v View, st *PacketState, router, size int, r *rng.PCG) Decision {
	var p Plan
	o.BuildPlan(v, st, router, size, r, &p)
	return o.RoutePlanned(v, &p, size, r)
}

// decideInjection makes the once-per-packet source-routing choice.
func (o *oblivious) decideInjection(v View, st *PacketState, router int, r *rng.PCG) {
	st.InjDecided = true
	switch o.spec {
	case Minimal:
		return
	case Valiant:
		st.ValiantGroup = int32(o.pickValiantGroup(v, st, r))
		st.GlobalMisCount++
	case PB:
		if o.pbWantsValiant(v, st, router, r) {
			st.GlobalMisCount++
		}
	}
}

// pickValiantGroup draws an intermediate group different from the source
// and destination groups. With link-state knowledge of failures it skips
// groups whose detour legs are dead; if no live detour turns up within the
// attempt budget it returns a dead draw, and the packet drops at the dead
// leg like any other unroutable packet.
func (o *oblivious) pickValiantGroup(v View, st *PacketState, r *rng.PCG) int {
	groups := o.tab.groups
	sg := int(st.CurGroup)
	dg := int(st.DstGroup)
	faulty := v.Faulty()
	fallback := -1
	for i := 0; i < 4*groups || fallback < 0; i++ {
		g := r.Intn(groups)
		if g == sg || g == dg {
			continue
		}
		if !faulty {
			return g
		}
		if fallback < 0 {
			fallback = g
		}
		if !v.RouteDown(sg, g) && !v.RouteDown(g, dg) {
			return g
		}
	}
	return fallback
}

// pbWantsValiant evaluates the Piggybacking criterion and, when Valiant is
// chosen, commits the intermediate group into st. It reports whether the
// packet was diverted.
func (o *oblivious) pbWantsValiant(v View, st *PacketState, router int, r *rng.PCG) bool {
	t := o.tab
	g := t.rt.GroupOf(router)
	if int(st.DstGroup) != g {
		// Remote destination: divert when the minimal global channel
		// is congested (a failed channel counts as congested — the
		// recomputed tables know it is gone) and the sampled Valiant
		// channel is not.
		kMin := t.rt.GroupOffset(g, int(st.DstGroup)) - 1
		minDead := v.Faulty() && v.RouteDown(g, int(st.DstGroup))
		if !v.GlobalCongested(kMin) && !minDead {
			return false
		}
		vg := o.pickValiantGroup(v, st, r)
		if v.GlobalCongested(t.rt.GroupOffset(g, vg) - 1) {
			return false
		}
		st.ValiantGroup = int32(vg)
		return true
	}
	// Intra-group destination: escape through a random remote group when
	// the minimal path is congested (paper Section IV-A). A saturated
	// local link shows almost no downstream occupancy — the link itself
	// is the bottleneck — so the signal is the source queue backlog,
	// with the direct port's downstream occupancy as a secondary cue.
	if int32(router) != st.DstRouter {
		idx := t.rt.IndexOf(router)
		dIdx := int(st.DstIdx)
		port := t.rt.LocalPortTo(idx, dIdx)
		qOcc, qCap := v.CurrentQueue()
		backlog := qCap > 0 && float64(qOcc) >= o.cfg.PBThreshold*float64(qCap)
		occ, cap := v.Occupancy(port, 0), v.Capacity(port, 0)
		linkDead := v.Faulty() && v.LocalDown(idx, dIdx)
		if !backlog && !linkDead && float64(occ) < o.cfg.PBThreshold*float64(cap) {
			return false
		}
		vg := o.pickValiantGroup(v, st, r)
		if v.GlobalCongested(t.rt.GroupOffset(g, vg) - 1) {
			return false
		}
		st.ValiantGroup = int32(vg)
		return true
	}
	return false
}
