package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// TestRingIsHamiltonian follows RingNext from router 0 and checks it
// visits every router exactly once before returning.
func TestRingIsHamiltonian(t *testing.T) {
	for _, h := range []int{2, 3, 4, 8} {
		p := topology.MustNew(h)
		seen := make([]bool, p.Routers)
		cur := 0
		for i := 0; i < p.Routers; i++ {
			if seen[cur] {
				t.Fatalf("h=%d: router %d visited twice after %d steps", h, cur, i)
			}
			seen[cur] = true
			next, port := RingNext(p, cur)
			if p.IsEjectPort(port) {
				t.Fatalf("h=%d: ring uses eject port at %d", h, cur)
			}
			// The port must physically reach next.
			got, _ := p.LinkTarget(cur, port)
			if got != next {
				t.Fatalf("h=%d: RingNext port mismatch at %d", h, cur)
			}
			cur = next
		}
		if cur != 0 {
			t.Fatalf("h=%d: ring did not close (ended at %d)", h, cur)
		}
	}
}

// TestRingAlternatesClasses: within a group the ring descends via local
// links; router 0 leaves via a global link.
func TestRingRouterZeroLeavesGroup(t *testing.T) {
	p := topology.MustNew(3)
	for g := 0; g < p.Groups; g++ {
		r0 := p.RouterID(g, 0)
		next, port := RingNext(p, r0)
		if !p.IsGlobalPort(port) {
			t.Fatalf("router 0 of group %d leaves via port %d (not global)", g, port)
		}
		if p.GroupOf(next) != (g+1)%p.Groups {
			t.Fatalf("ring from group %d jumps to group %d", g, p.GroupOf(next))
		}
		if p.IndexInGroup(next) != p.RoutersPerGroup-1 {
			t.Fatalf("ring enters group at index %d, want %d",
				p.IndexInGroup(next), p.RoutersPerGroup-1)
		}
	}
}

// TestOFARMinimalWhenIdle: on an empty network OFAR routes minimally and
// never touches the escape ring.
func TestOFARMinimalWhenIdle(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, OFAR, p)
	v := newFakeView(p)
	r := rng.New(3, 3)
	for trial := 0; trial < 100; trial++ {
		src := r.Intn(p.Routers)
		dst := r.Intn(p.Routers)
		if src == dst {
			continue
		}
		var st PacketState
		st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
		hops := walk(t, alg, p, v, &st, r, 4)
		if len(hops) != p.MinimalHops(src, dst) {
			t.Fatalf("OFAR non-minimal on idle network: %d vs %d hops",
				len(hops), p.MinimalHops(src, dst))
		}
		if st.EscapeHops != 0 {
			t.Fatal("OFAR used the escape ring on an idle network")
		}
	}
}

// TestOFAREscapesWhenBlocked: with the whole adaptive network blocked, the
// packet must take the ring edge on the reserved VC.
func TestOFAREscapesWhenBlocked(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, OFAR, p)
	v := newFakeView(p)
	r := rng.New(5, 5)
	// Block the adaptive VCs everywhere (VCs 0 and 1 on every port),
	// leaving the escape VCs free.
	for port := 0; port < p.EjectPortBase(); port++ {
		for vc := 0; vc < 2; vc++ {
			v.blocked[[2]int{port, vc}] = true
			v.occupancy[[2]int{port, vc}] = 32
		}
	}
	src := p.RouterID(0, 1) // ring successor is router 0 via a local link
	dst := p.RouterID(3, 1)
	var st PacketState
	st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
	dec := alg.Route(v, &st, src, 8, r)
	if dec.Wait {
		t.Fatal("OFAR waited with a free escape ring")
	}
	if dec.Kind != KindEscape {
		t.Fatalf("kind = %v, want escape", dec.Kind)
	}
	next, wantPort := RingNext(p, src)
	if dec.Port != wantPort {
		t.Fatalf("escape port %d, want %d (toward %d)", dec.Port, wantPort, next)
	}
	if dec.VC != ofarEscapeLocalVC {
		t.Fatalf("escape VC %d, want %d", dec.VC, ofarEscapeLocalVC)
	}
	CommitHop(p, &st, src, dec)
	if !st.OnEscape || st.EscapeHops != 1 {
		t.Fatalf("escape state not committed: %+v", st)
	}
}

// TestOFARBubbleCondition: entering the ring needs two packets of space;
// riding it needs one.
func TestOFARBubbleCondition(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, OFAR, p)
	r := rng.New(7, 7)
	src := p.RouterID(0, 1)
	dst := p.RouterID(3, 1)

	mkView := func(escOcc int) *fakeView {
		v := newFakeView(p)
		for port := 0; port < p.EjectPortBase(); port++ {
			for vc := 0; vc < 2; vc++ {
				v.blocked[[2]int{port, vc}] = true
				v.occupancy[[2]int{port, vc}] = 32
			}
		}
		_, ringPort := RingNext(p, src)
		v.occupancy[[2]int{ringPort, ofarEscapeLocalVC}] = escOcc
		return v
	}

	// 20/32 phits used leaves 12 < 16 = 2 packets: entry refused.
	var st PacketState
	st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
	if dec := alg.Route(mkView(20), &st, src, 8, r); !dec.Wait {
		t.Fatalf("ring entry allowed without a bubble: %+v", dec)
	}
	// A packet already on the ring needs only one packet of space.
	st.OnEscape = true
	if dec := alg.Route(mkView(20), &st, src, 8, r); dec.Wait || dec.Kind != KindEscape {
		t.Fatalf("ring continuation refused with one slot free: %+v", dec)
	}
	// 16/32 used leaves exactly two packets: entry allowed.
	st.OnEscape = false
	if dec := alg.Route(mkView(16), &st, src, 8, r); dec.Wait || dec.Kind != KindEscape {
		t.Fatalf("ring entry refused with a full bubble: %+v", dec)
	}
}

// TestOFARLeavesRingWhenAdaptiveFrees: a packet on the ring resumes
// adaptive routing as soon as the minimal output clears.
func TestOFARLeavesRingWhenAdaptiveFrees(t *testing.T) {
	p := topology.MustNew(2)
	alg := mustAlg(t, OFAR, p)
	v := newFakeView(p)
	r := rng.New(9, 9)
	src := p.RouterID(0, 1)
	dst := p.RouterID(0, 2)
	var st PacketState
	st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
	st.OnEscape = true // pretend it was escaping
	dec := alg.Route(v, &st, src, 8, r)
	if dec.Wait || dec.Kind != KindMin {
		t.Fatalf("OFAR did not resume minimal routing: %+v", dec)
	}
	CommitHop(p, &st, src, dec)
	if st.OnEscape {
		t.Fatal("OnEscape not cleared by an adaptive hop")
	}
}

func TestOFARRequiresVCT(t *testing.T) {
	if !OFAR.RequiresVCT() {
		t.Fatal("OFAR must require VCT (bubble flow control)")
	}
	l, g := OFAR.VCs()
	if l != 3 || g != 2 {
		t.Fatalf("OFAR VCs %d/%d, want 3/2", l, g)
	}
}

// TestOFARAdaptiveStaysOffEscapeVCs: fuzz many idle-network walks and
// blocked decisions; adaptive hops must never use the reserved VCs.
func TestOFARAdaptiveStaysOffEscapeVCs(t *testing.T) {
	p := topology.MustNew(3)
	alg := mustAlg(t, OFAR, p)
	r := rng.New(11, 11)
	for trial := 0; trial < 300; trial++ {
		v := newFakeView(p)
		// Congest a random subset to provoke misrouting.
		for n := 0; n < 5; n++ {
			port := r.Intn(p.EjectPortBase())
			for vc := 0; vc < 2; vc++ {
				v.blocked[[2]int{port, vc}] = true
				v.occupancy[[2]int{port, vc}] = 32
			}
		}
		src := r.Intn(p.Routers)
		dst := r.Intn(p.Routers)
		if src == dst {
			continue
		}
		var st PacketState
		st.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
		router := src
		for hop := 0; hop < 12 && int16(router) != st.DstRouter; hop++ {
			dec := alg.Route(v, &st, router, 8, r)
			if dec.Wait {
				break
			}
			if dec.Kind != KindEscape {
				if p.IsGlobalPort(dec.Port) && dec.VC == ofarEscapeGlobalVC {
					t.Fatalf("adaptive hop on reserved global VC: %+v", dec)
				}
				if p.IsLocalPort(dec.Port) && dec.VC == ofarEscapeLocalVC {
					t.Fatalf("adaptive hop on reserved local VC: %+v", dec)
				}
			}
			router = commitAndMove(p, &st, router, dec)
		}
	}
}
