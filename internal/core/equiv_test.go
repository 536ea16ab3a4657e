package core

import (
	"testing"
	"unsafe"

	"repro/internal/rng"
	"repro/internal/topology"
)

// TestTablesMatchPairRules pins the precomputed candidate tables to the
// pair checkers they replace, exhaustively for h=2..8: pairOK against
// AllowedHops, and the per-(idx, exit) detour lists against a direct
// enumeration with the rule applied.
func TestTablesMatchPairRules(t *testing.T) {
	for h := 2; h <= 8; h++ {
		p := topology.MustNew(h)
		rules := []struct {
			spec Spec
			pair restrictedPairChecker
		}{
			{RLM, NewParityTable()},
			{RLMSignOnly, NewSignOnlyTable()},
			{OLM, nil},
		}
		for _, rule := range rules {
			tab, err := NewTables(rule.spec, Config{Topo: p})
			if err != nil {
				t.Fatal(err)
			}
			rpg := p.RoutersPerGroup
			for i := 0; i < rpg; i++ {
				for k := 0; k < rpg; k++ {
					if k == i {
						continue
					}
					for j := 0; j < rpg; j++ {
						if j == k {
							continue
						}
						want := rule.pair == nil || rule.pair.AllowedHops(i, k, j)
						if got := tab.pairAllowed(i, k, j); got != want {
							t.Fatalf("h=%d %v pairAllowed(%d,%d,%d) = %v, want %v",
								h, rule.spec, i, k, j, got, want)
						}
					}
				}
			}
			for idx := 0; idx < rpg; idx++ {
				for exit := 0; exit < rpg; exit++ {
					if idx == exit {
						continue
					}
					var want []localCand
					for k := 0; k < rpg; k++ {
						if k == idx || k == exit {
							continue
						}
						if rule.pair != nil && !rule.pair.AllowedHops(idx, k, exit) {
							continue
						}
						want = append(want, localCand{k: int16(k), port: int16(p.LocalPort(idx, k))})
					}
					got := tab.localRow(idx*rpg + exit)
					if len(got) != len(want) {
						t.Fatalf("h=%d %v localCands(%d,%d): %d entries, want %d",
							h, rule.spec, idx, exit, len(got), len(want))
					}
					for n := range got {
						if got[n] != want[n] {
							t.Fatalf("h=%d %v localCands(%d,%d)[%d] = %+v, want %+v",
								h, rule.spec, idx, exit, n, got[n], want[n])
						}
					}
				}
			}
		}
	}
}

// TestMinimalHopMatchesRecompute pins the table-driven minimal hop to the
// recomputing minimalNext across every (router, destination, Valiant)
// combination for h=2..5 and a sample for larger h.
func TestMinimalHopMatchesRecompute(t *testing.T) {
	for h := 2; h <= 8; h++ {
		p := topology.MustNew(h)
		tab, err := NewTables(Minimal, Config{Topo: p})
		if err != nil {
			t.Fatal(err)
		}
		step := 1
		if h > 5 {
			step = 7 // sample: full cross-product is O(routers²·groups)
		}
		r := rng.New(uint64(h), 99)
		for router := 0; router < p.Routers; router += step {
			for dst := 0; dst < p.Routers; dst += step {
				if dst == router {
					continue
				}
				var st PacketState
				st.Init(p, p.NodeID(router, 0), p.NodeID(dst, 0))
				// Random in-transit shapes: sometimes at a transit router
				// with a pending Valiant group.
				if r.Intn(2) == 0 {
					vg := r.Intn(p.Groups)
					if vg != p.GroupOf(router) && vg != int(st.DstGroup) {
						st.ValiantGroup = int32(vg)
					}
				}
				st.CurGroup = int32(p.GroupOf(router))
				wantPort, wantGlobal, wantExit := minimalNext(p, &st, router)
				gotPort, gotGlobal, gotExit := tab.minimalHop(&st, p.IndexInGroup(router), p.GroupOf(router))
				if gotPort != wantPort || gotGlobal != wantGlobal || gotExit != wantExit {
					t.Fatalf("h=%d router %d dst %d valiant %d: minimalHop = (%d,%v,%d), minimalNext = (%d,%v,%d)",
						h, router, dst, st.ValiantGroup, gotPort, gotGlobal, gotExit, wantPort, wantGlobal, wantExit)
				}
			}
		}
	}
}

// perturb randomizes the dynamic view state (occupancy, claimability) the
// trigger evaluates, leaving fault state alone.
func perturb(v *fakeView, p *topology.P, r *rng.PCG) {
	for k := range v.blocked {
		delete(v.blocked, k)
	}
	for k := range v.occupancy {
		delete(v.occupancy, k)
	}
	for n := 0; n < 8; n++ {
		port := r.Intn(p.Ports)
		vc := r.Intn(6)
		if r.Intn(2) == 0 {
			v.blocked[[2]int{port, vc}] = true
		}
		v.occupancy[[2]int{port, vc}] = r.Intn(40)
	}
	for k := 0; k < p.ChannelsPerGrp; k++ {
		delete(v.congested, k)
		if r.Intn(4) == 0 {
			v.congested[k] = true
		}
	}
	v.queueOcc = r.Intn(33)
	v.queueCap = 32
}

// TestPlanRouteEquivalence is the table-vs-recompute property test: for
// every mechanism, h=2..8, fault-free and degraded, it drives packets
// through randomized congestion and asserts at every evaluation that the
// engine's cached-plan path (BuildPlan once, RoutePlanned replayed across
// retries) produces exactly the decisions — and consumes exactly the RNG
// stream — of a fresh full evaluation, while CommitHop keeps the two
// packet states identical.
func TestPlanRouteEquivalence(t *testing.T) {
	specs := []Spec{Minimal, Valiant, PB, PAR62, RLM, OLM, RLMSignOnly, OFAR}
	for h := 2; h <= 8; h++ {
		p := topology.MustNew(h)
		trials := 60
		if h > 4 {
			trials = 12
		}
		for _, faulted := range []bool{false, true} {
			var faults *topology.FaultSet
			if faulted {
				faults = topology.NewFaultSet(p)
				if err := topology.RandomFaults(faults, 0.15, 0.05, uint64(37+h)); err != nil {
					t.Fatal(err)
				}
			}
			for _, spec := range specs {
				tab, err := NewTables(spec, Config{Topo: p, Threshold: 0.45, RemoteCandidates: 2})
				if err != nil {
					t.Fatal(err)
				}
				fresh := tab.NewAlgorithm()  // recomputes every evaluation
				cached := tab.NewAlgorithm() // builds once, replays
				v := newFakeView(p)
				v.faults = faults
				drive := rng.New(uint64(1000*h)+uint64(spec), 5)
				for trial := 0; trial < trials; trial++ {
					src := drive.Intn(p.Routers)
					dst := drive.Intn(p.Routers)
					if src == dst {
						continue
					}
					var stA, stB PacketState
					stA.Init(p, p.NodeID(src, 0), p.NodeID(dst, 0))
					stB = stA
					router := src
					rA := rng.New(uint64(trial), uint64(spec)*2+1)
					rB := *rA
					for hop := 0; hop < 16 && int32(router) != stA.DstRouter; hop++ {
						v.router = router
						perturb(v, p, drive)
						var plan Plan
						cached.BuildPlan(v, &stB, router, 8, &rB, &plan)
						// Several retries against shifting congestion: the
						// plan must keep matching full re-evaluation.
						var decA, decB Decision
						for retry := 0; ; retry++ {
							decA = fresh.Route(v, &stA, router, 8, rA)
							decB = cached.RoutePlanned(v, &plan, 8, &rB)
							if decA != decB {
								t.Fatalf("h=%d %v faulted=%v trial %d hop %d retry %d:\n  fresh : %+v\n  cached: %+v",
									h, spec, faulted, trial, hop, retry, decA, decB)
							}
							if *rA != rB {
								t.Fatalf("h=%d %v faulted=%v trial %d hop %d retry %d: RNG streams diverged",
									h, spec, faulted, trial, hop, retry)
							}
							if stA != stB {
								t.Fatalf("h=%d %v faulted=%v trial %d: packet states diverged:\n  %+v\n  %+v",
									h, spec, faulted, trial, stA, stB)
							}
							if !decA.Wait || retry >= 2 {
								break
							}
							perturb(v, p, drive)
						}
						if decA.Wait || decA.Drop {
							break
						}
						next, _ := p.LinkTarget(router, decA.Port)
						CommitHop(p, &stA, router, decA)
						CommitHop(p, &stB, router, decA)
						router = next
					}
				}
			}
		}
	}
}

// TestPlanFitsOneLine pins the cached plan to one 64-byte cache line: the
// engine loads one per claim attempt.
func TestPlanFitsOneLine(t *testing.T) {
	if n := unsafe.Sizeof(Plan{}); n > 64 {
		t.Fatalf("core.Plan is %d bytes, want <= 64", n)
	}
}
