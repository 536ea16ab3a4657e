// ofar.go implements OFAR (On-the-Fly Adaptive Routing, García et al.
// ICPP 2012), the prior mechanism the paper positions RLM and OLM against
// (Section II): fully adaptive local+global misrouting whose deadlock
// avoidance relies not on virtual-channel ordering but on an escape
// subnetwork — a Hamiltonian ring across the whole machine regulated by
// bubble flow control.
//
// The ring is physical: inside every group it descends the router indices
// 2h-1, 2h-2, …, 0, and router 0 crosses to the next group through global
// channel 0, arriving at that group's router 2h-1 (the owner of the paired
// channel). One local VC (index 2) and one global VC (index 1) are
// reserved for the ring; adaptive traffic uses the remaining 2/1 VCs, so
// OFAR fits the same 3/2 budget. A packet enters the ring only when two
// packets' worth of space is free downstream (the bubble), and keeps
// moving with one packet's worth — the classic bubble argument makes the
// ring deadlock free, and every blocked adaptive packet can always fall
// back to it. Whole-packet space reasoning requires virtual cut-through,
// which is why the paper notes OFAR "does not work with Wormhole".
//
// OFAR's documented weakness — the low-capacity escape ring congests and
// packets ride it for long stretches — emerges here as well; it is the
// motivation for RLM and OLM and is measured by the ablation benchmarks.
package core

import (
	"repro/internal/rng"
	"repro/internal/topology"
)

// Reserved escape-ring VC indices (within the 3/2 budget).
const (
	ofarEscapeLocalVC  = 2
	ofarEscapeGlobalVC = 1
)

// ofar wraps the shared adaptive machinery, restricted to the two
// non-escape VCs, and adds the escape ring fallback.
type ofar struct {
	adaptive
}

func newOFAR(tab *Tables) *ofar {
	o := &ofar{adaptive: *newAdaptive(OFAR, tab)}
	return o
}

// Route implements Algorithm as one-shot build-plus-replay: the adaptive
// network first (minimal, then the misrouting trigger), then the escape
// ring under bubble flow control; see BuildPlan and RoutePlanned in
// plan.go for the procedure.
func (o *ofar) Route(v View, st *PacketState, router, size int, r *rng.PCG) Decision {
	var p Plan
	o.BuildPlan(v, st, router, size, r, &p)
	return o.RoutePlanned(v, &p, size, r)
}

// RingNext returns the successor of router on the escape Hamiltonian ring
// and the output port reaching it: descending router indices within a
// group, then global channel 0 (owned by router index 0) into the next
// group, which is entered at router index 2h-1.
func RingNext(p *topology.P, router int) (next, port int) {
	idx := p.IndexInGroup(router)
	if idx > 0 {
		return router - 1, p.LocalPort(idx, idx-1)
	}
	port = p.GlobalPortBase() // channel 0 of this group
	next, _ = p.GlobalLink(router, port)
	return next, port
}
