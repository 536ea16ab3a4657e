package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// deadChannel fails the global channel between groups a and b.
func deadChannel(f *topology.FaultSet, a, b int) {
	p := f.Topology()
	idx, port := p.GlobalPortOfChannel(p.ChannelToGroup(a, b))
	f.SetLink(p.RouterID(a, idx), port, true)
}

// interState builds a packet from router 0 (group 0) to the first router
// of group dg.
func interState(p *topology.P, dg int) PacketState {
	var st PacketState
	st.Init(p, p.NodeID(0, 0), p.NodeID(p.RouterID(dg, 0), 0))
	return st
}

// TestObliviousDropsOnDeadRoute: Minimal (and a committed Valiant) cannot
// adapt in transit, so a dead route means an immediate drop — anywhere in
// the group, not just at the channel owner.
func TestObliviousDropsOnDeadRoute(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, Minimal, p)
	v := newFakeView(p)
	v.faults = topology.NewFaultSet(p)
	deadChannel(v.faults, 0, 3)
	r := rng.New(1, 1)

	st := interState(p, 3)
	dec := alg.Route(v, &st, 0, 8, r)
	if !dec.Drop {
		t.Fatalf("Minimal toward a dead channel: got %+v, want Drop", dec)
	}
	// A live destination group routes normally.
	st = interState(p, 4)
	dec = alg.Route(v, &st, 0, 8, r)
	if dec.Drop || dec.Wait {
		t.Fatalf("Minimal toward a live channel: got %+v", dec)
	}
	// A dead local leg drops too: the direct local link to the in-group
	// destination router.
	st = PacketState{}
	st.Init(p, p.NodeID(0, 0), p.NodeID(3, 0))
	v.faults.SetLink(0, p.LocalPort(0, 3), true)
	dec = alg.Route(v, &st, 0, 8, r)
	if !dec.Drop {
		t.Fatalf("Minimal over a dead local link: got %+v, want Drop", dec)
	}
}

// TestValiantAvoidsDeadDetours: the injection-time intermediate group draw
// skips groups with a dead leg, so Valiant keeps near-full delivery on
// degraded networks.
func TestValiantAvoidsDeadDetours(t *testing.T) {
	p := topology.MustNew(2)
	v := newFakeView(p)
	v.faults = topology.NewFaultSet(p)
	// Kill several of group 0's channels and some second legs.
	deadChannel(v.faults, 0, 1)
	deadChannel(v.faults, 0, 2)
	deadChannel(v.faults, 2, 8)
	deadChannel(v.faults, 4, 8)
	alg := mustAlg(t, Valiant, p)
	r := rng.New(5, 5)
	for trial := 0; trial < 200; trial++ {
		st := interState(p, 8)
		alg.Route(v, &st, 0, 8, r)
		vg := int(st.ValiantGroup)
		if vg < 0 {
			t.Fatal("Valiant committed no intermediate group")
		}
		if v.faults.RouteDown(0, vg) || v.faults.RouteDown(vg, 8) {
			t.Fatalf("Valiant picked group %d with a dead leg", vg)
		}
	}
}

// TestAdaptiveMisroutesAroundDeadChannel: at the owner of a dead channel,
// the misrouting trigger arms immediately (the route is gone, not
// congested) and only live detours are offered.
func TestAdaptiveMisroutesAroundDeadChannel(t *testing.T) {
	p := topology.MustNew(2)
	for _, spec := range []Spec{PAR62, RLM, OLM} {
		alg := mustAlg(t, spec, p)
		v := newFakeView(p)
		v.faults = topology.NewFaultSet(p)
		// Destination group 1: channel 0 of group 0, owned by router 0.
		deadChannel(v.faults, 0, 1)
		// Kill a second leg so one candidate group is also filtered.
		deadChannel(v.faults, 3, 1)
		r := rng.New(9, 9)
		seen := map[int]bool{}
		for trial := 0; trial < 100; trial++ {
			st := interState(p, 1)
			dec := alg.Route(v, &st, 0, 8, r)
			if dec.Wait || dec.Drop {
				t.Fatalf("%v at dead-channel owner: got %+v, want a misroute", spec, dec)
			}
			if dec.Kind != KindGlobalMis {
				t.Fatalf("%v: hop kind %v, want a Valiant commitment", spec, dec.Kind)
			}
			if v.faults.RouteDown(0, dec.NewValiant) || v.faults.RouteDown(dec.NewValiant, 1) {
				t.Fatalf("%v committed to group %d with a dead leg", spec, dec.NewValiant)
			}
			seen[dec.NewValiant] = true
		}
		if len(seen) < 2 {
			t.Fatalf("%v always picked the same detour group: %v", spec, seen)
		}
	}
}

// TestAdaptiveDropsWhenNoDetourSurvives: h=1 has exactly one alternative
// group per pair; killing both the direct channel and the detour's second
// leg leaves nothing, and the packet must drop rather than wait forever.
func TestAdaptiveDropsWhenNoDetourSurvives(t *testing.T) {
	p := topology.MustNew(1) // 3 groups
	for _, spec := range []Spec{PAR62, RLM, OLM} {
		alg := mustAlg(t, spec, p)
		v := newFakeView(p)
		v.faults = topology.NewFaultSet(p)
		deadChannel(v.faults, 0, 1) // direct
		deadChannel(v.faults, 2, 1) // via group 2
		r := rng.New(3, 3)
		st := interState(p, 1)
		// Evaluate at the channel owner.
		idx, _ := p.GlobalPortOfChannel(p.ChannelToGroup(0, 1))
		router := p.RouterID(0, idx)
		v.router = router
		st.SrcRouter = int16(router)
		dec := alg.Route(v, &st, router, 8, r)
		if !dec.Drop {
			t.Fatalf("%v with no surviving detour: got %+v, want Drop", spec, dec)
		}
	}
}

// TestForcedHopDeadDrops: the forced exit hop after a local misroute has
// no adaptivity; if its link dies the packet drops.
func TestForcedHopDeadDrops(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, RLM, p)
	v := newFakeView(p)
	v.faults = topology.NewFaultSet(p)
	v.router = 1
	v.faults.SetLink(1, p.LocalPort(1, 3), true)
	var st PacketState
	st.Init(p, p.NodeID(2, 0), p.NodeID(3, 0))
	st.PendingLocal = 3
	dec := alg.Route(v, &st, 1, 8, rng.New(1, 1))
	if !dec.Drop {
		t.Fatalf("forced hop over a dead link: got %+v, want Drop", dec)
	}
}

// TestLocalMisrouteSkipsDeadDetours: in the destination group with the
// direct local link dead, adaptive mechanisms detour i->k->exit only
// through fully live pairs.
func TestLocalMisrouteSkipsDeadDetours(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, OLM, p)
	v := newFakeView(p)
	v.faults = topology.NewFaultSet(p)
	// Packet at router 0, destination router 3, same group. Of the two
	// possible detours (via 1 or via 2), only the one via 1 stays fully
	// alive.
	v.faults.SetLink(0, p.LocalPort(0, 3), true) // direct leg dead
	v.faults.SetLink(0, p.LocalPort(0, 2), true) // detour via 2: first hop dead
	var st PacketState
	st.Init(p, p.NodeID(0, 0), p.NodeID(3, 0))
	r := rng.New(2, 2)
	dec := alg.Route(v, &st, 0, 8, r)
	if dec.Wait || dec.Drop {
		t.Fatalf("OLM with one live detour: got %+v", dec)
	}
	if dec.Kind != KindLocalMis || p.LocalPortTarget(0, dec.Port) != 1 {
		t.Fatalf("OLM picked %+v, want the only live detour via router 1", dec)
	}
	// Kill the surviving detour's exit leg: nothing survives, so drop.
	v.faults.SetLink(1, p.LocalPort(1, 3), true)
	dec = alg.Route(v, &st, 0, 8, r)
	if !dec.Drop {
		t.Fatalf("OLM with no live detour: got %+v, want Drop", dec)
	}
}

// TestOFARRingFallback: with its adaptive routes dead, OFAR rides the
// escape ring while it survives and drops once the ring edge is dead too.
func TestOFARRingFallback(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, OFAR, p)
	v := newFakeView(p)
	v.faults = topology.NewFaultSet(p)
	// Destination group 5: kill the direct channel and every detour's
	// second leg, so the whole adaptive network is dead for this packet.
	deadChannel(v.faults, 0, 5)
	for tg := 0; tg < p.Groups; tg++ {
		if tg != 0 && tg != 5 {
			deadChannel(v.faults, tg, 5)
		}
	}
	// Evaluate at the owner of the dead direct channel; its ring edge (a
	// descending local hop — the owner is not router index 0) is alive.
	idx, _ := p.GlobalPortOfChannel(p.ChannelToGroup(0, 5))
	router := p.RouterID(0, idx)
	if idx == 0 {
		t.Fatal("test assumes a non-ring-crossing owner")
	}
	v.router = router
	r := rng.New(4, 4)

	st := interState(p, 5)
	st.SrcRouter = int16(router)
	dec := alg.Route(v, &st, router, 8, r)
	if dec.Wait || dec.Drop || dec.Kind != KindEscape {
		t.Fatalf("OFAR with dead adaptive routes: got %+v, want an escape hop", dec)
	}
	// Sever the ring edge as well: now nothing survives.
	_, ringPort := RingNext(p, router)
	v.faults.SetLink(router, ringPort, true)
	dec = alg.Route(v, &st, router, 8, r)
	if !dec.Drop {
		t.Fatalf("OFAR with dead routes and severed ring: got %+v, want Drop", dec)
	}
}
