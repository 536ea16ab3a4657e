package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// TestValiantGroupExclusion: the intermediate group is never the source or
// destination group, over many draws.
func TestValiantGroupExclusion(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, Valiant, p)
	v := newFakeView(p)
	r := rng.New(21, 4)
	counts := make(map[int16]int)
	src := p.RouterID(0, 1)
	dst := p.RouterID(3, 0)
	for i := 0; i < 2000; i++ {
		var st PacketState
		st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
		_ = alg.Route(v, &st, src, 8, r)
		if st.ValiantGroup < 0 {
			t.Fatal("valiant made no commitment at injection")
		}
		if st.ValiantGroup == 0 || st.ValiantGroup == 3 {
			t.Fatalf("valiant picked source/destination group %d", st.ValiantGroup)
		}
		counts[st.ValiantGroup]++
	}
	// Every one of the 2h²-1 = 7 eligible groups should be drawn.
	if len(counts) != p.Groups-2 {
		t.Fatalf("valiant drew %d distinct groups, want %d", len(counts), p.Groups-2)
	}
}

// TestValiantIntraGroupEscapes: intra-group traffic goes through a remote
// group under pure Valiant routing — unless the walk toward the chosen
// channel owner happens to pass through the destination router first, in
// which case the packet is (correctly) delivered early. Global hop counts
// are therefore exactly 0 (early ejection) or 2, with 2 dominating.
func TestValiantIntraGroupEscapes(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, Valiant, p)
	v := newFakeView(p)
	r := rng.New(23, 1)
	twoGlobals, early := 0, 0
	for trial := 0; trial < 200; trial++ {
		var st PacketState
		st.Init(p, p.NodeID(p.RouterID(0, 0), 0), p.NodeID(p.RouterID(0, 1), 0))
		walk(t, alg, p, v, &st, r, 6)
		switch st.GlobalHops {
		case 2:
			twoGlobals++
		case 0:
			early++
		default:
			t.Fatalf("intra-group valiant took %d global hops", st.GlobalHops)
		}
	}
	if twoGlobals <= early {
		t.Fatalf("valiant detours: %d, early deliveries: %d — detours should dominate",
			twoGlobals, early)
	}
}

// TestPBFallsBackWhenBothCongested: when the minimal and the sampled
// Valiant channels are congested, PB stays minimal (Jiang et al.).
func TestPBFallsBackWhenBothCongested(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, PB, p)
	v := newFakeView(p)
	r := rng.New(25, 9)
	// Congest every channel of group 0.
	for k := 0; k < p.ChannelsPerGrp; k++ {
		v.congested[k] = true
	}
	dstGroup := p.TargetGroup(0, 0)
	var st PacketState
	st.Init(p, p.NodeID(0, 0), p.NodeID(p.RouterID(dstGroup, 1), 0))
	_ = alg.Route(v, &st, 0, 8, r)
	if st.ValiantGroup >= 0 {
		t.Fatal("PB diverted although every channel is congested")
	}
	if !st.InjDecided {
		t.Fatal("PB did not record its injection decision")
	}
}

// TestPBIntraGroupBacklogTrigger: a deep injection backlog diverts
// intra-group traffic through a Valiant path even when the direct port's
// downstream buffer looks empty (the ADVL saturation signature).
func TestPBIntraGroupBacklogTrigger(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, PB, p)
	r := rng.New(27, 2)

	// No backlog: stay minimal.
	v := newFakeView(p)
	v.queueOcc, v.queueCap = 0, 128
	var st PacketState
	st.Init(p, p.NodeID(0, 0), p.NodeID(1, 0))
	_ = alg.Route(v, &st, 0, 8, r)
	if st.ValiantGroup >= 0 {
		t.Fatal("PB diverted local traffic without congestion")
	}

	// Full backlog: divert.
	v = newFakeView(p)
	v.queueOcc, v.queueCap = 128, 128
	st = PacketState{}
	st.Init(p, p.NodeID(0, 0), p.NodeID(1, 0))
	_ = alg.Route(v, &st, 0, 8, r)
	if st.ValiantGroup < 0 {
		t.Fatal("PB kept local traffic minimal despite a full injection queue")
	}
	if st.ValiantGroup == 0 {
		t.Fatal("PB picked the source group as intermediate")
	}
}

// TestPBDecisionIsSticky: once decided at injection, in-transit hops do
// not change the route class.
func TestPBDecisionIsSticky(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, PB, p)
	v := newFakeView(p)
	r := rng.New(29, 3)
	v.congested[0] = true // minimal channel of group 0 toward group 1
	dstGroup := p.TargetGroup(0, 0)
	var st PacketState
	st.Init(p, p.NodeID(0, 0), p.NodeID(p.RouterID(dstGroup, 1), 0))
	_ = alg.Route(v, &st, 0, 8, r)
	committed := st.ValiantGroup
	if committed < 0 {
		t.Fatal("PB did not divert off the congested channel")
	}
	// Re-evaluations (e.g. while waiting) must not re-roll the choice.
	for i := 0; i < 10; i++ {
		_ = alg.Route(v, &st, 0, 8, r)
		if st.ValiantGroup != committed {
			t.Fatalf("PB re-rolled its Valiant group: %d -> %d", committed, st.ValiantGroup)
		}
	}
}

// TestMinimalNeverMisroutes even when everything is congested: it waits.
func TestMinimalNeverMisroutes(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, Minimal, p)
	v := newFakeView(p)
	r := rng.New(31, 1)
	var st PacketState
	st.Init(p, p.NodeID(0, 0), p.NodeID(p.Routers-1, 0))
	blockMinimal(v, p, Minimal, &st, 0)
	for i := 0; i < 20; i++ {
		dec := alg.Route(v, &st, 0, 8, r)
		if !dec.Wait {
			t.Fatalf("minimal produced a decision off its path: %+v", dec)
		}
	}
	if st.GlobalMisCount != 0 || st.ValiantGroup >= 0 {
		t.Fatal("minimal committed a detour")
	}
}
