package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// TestCreditConservation: after a run drains completely, every credit
// counter has returned to its buffer's capacity and every buffer is empty.
func TestCreditConservation(t *testing.T) {
	cfg := testConfig(t, 2, core.OLM, 0)
	burst, err := traffic.NewBurst(15, cfg.Topo.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, nil, burst)
	cfg.Warmup, cfg.Measure = 0, 0
	cfg.MaxCycles = 300000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatal("burst deadlocked")
	}
	// Let stragglers on the links land.
	for i := 0; i < 3*cfg.LatGlobal; i++ {
		sim.stepBlock(1)
	}
	for i := range sim.routers {
		r := &sim.routers[i]
		for port := range r.out {
			op := &r.out[port]
			if op.link == nil {
				continue
			}
			for vc, c := range r.outCredits(port) {
				if c != op.capacity {
					t.Fatalf("router %d out(%d,%d): %d credits, capacity %d",
						r.id, port, vc, c, op.capacity)
				}
			}
			if op.activeVCs != 0 {
				t.Fatalf("router %d out %d: dangling transfers %b", r.id, port, op.activeVCs)
			}
		}
		for port := range r.in {
			for vc, buf := range r.inVCs(port) {
				if !buf.empty() {
					t.Fatalf("router %d in(%d,%d): residue after drain", r.id, port, vc)
				}
			}
		}
	}
}

// TestWormholePacketSpansRouters: with 40-phit packets and 8-phit buffers
// a blocked packet must hold buffers in several routers at once — the
// extended dependencies the paper discusses. Sample states mid-run and
// require at least one packet present in two or more buffers.
func TestWormholePacketSpansRouters(t *testing.T) {
	cfg := testConfig(t, 2, core.RLM, 0.5)
	cfg.Flow = WH
	cfg.PacketPhits = 40
	cfg.BufLocal, cfg.BufGlobal = 8, 48
	proc, err := traffic.NewBernoulli(0.5, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, nil, proc)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spanning := 0
	for c := 0; c < 3000; c++ {
		sim.stepBlock(1)
		if c%100 != 0 {
			continue
		}
		seen := make(map[pktRef]int)
		for i := range sim.routers {
			r := &sim.routers[i]
			for port := range r.in {
				if r.in[port].link == nil {
					continue // injection queues hold whole packets
				}
				for _, buf := range r.inVCs(port) {
					for k := int32(0); k < buf.count; k++ {
						e := sim.rings.entries.at(buf.ring + ringRef((buf.head+k)%r.dims[port].entN))
						seen[e.pkt]++
					}
				}
			}
		}
		for _, n := range seen {
			if n >= 2 {
				spanning++
			}
		}
	}
	if spanning == 0 {
		t.Fatal("no wormhole packet ever spanned two routers")
	}
}

// TestPBPublishDelay: congestion bits a router publishes in cycle t are
// visible to its group's routing in cycle t+1 (the table of t+1's parity),
// not in cycle t — and each group's bits follow its own clock, so a group
// running ahead in a block neither sees nor disturbs another's.
func TestPBPublishDelay(t *testing.T) {
	cfg := testConfig(t, 2, core.PB, 0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.pbEnabled {
		t.Fatal("PB tables not enabled")
	}
	p := sim.topo
	// Fill router 0's first global channel (group 0) to capacity, and
	// publish it at cycle 5.
	r := &sim.routers[0]
	port := p.GlobalPortBase()
	k := p.GlobalChannelOfPort(p.IndexInGroup(0), port)
	clear(r.outCredits(port))
	r.publishPB(5)
	if !sim.pb[0][6&1][k] || sim.pb[0][5&1][k] {
		t.Fatalf("cycle 5 published into the wrong table: %v", sim.pb[0])
	}
	for _, tc := range []struct {
		router int
		cycle  int64
		want   bool
	}{
		{0, 5, false},                    // same cycle: the old table
		{0, 6, true},                     // next cycle: visible
		{p.RoutersPerGroup - 1, 6, true}, // every router of the group sees it
		{p.RoutersPerGroup, 6, false},    // group 1, same cycle: its own table
	} {
		rr := &sim.routers[tc.router]
		rr.parity = uint8(tc.cycle & 1)
		if got := rr.GlobalCongested(k); got != tc.want {
			t.Fatalf("router %d at cycle %d: GlobalCongested(%d) = %v, want %v", tc.router, tc.cycle, k, got, tc.want)
		}
	}
}

// TestPBTablesTrackCredits: at every block boundary, each router's
// Piggybacking bits in the table the next cycle reads equal the bits its
// current credits give. A step that may change credits — it absorbed a
// credit or holds a packet — sets the cooldown to 2, and every step
// publishes while the cooldown lasts, so the last change reaches both
// table buffers; once the cooldown has run out, the other table must
// agree too. Saturated runs under VCT (adversarial, so channels congest)
// and wormhole (credits drop phit by phit, with no arrival behind the
// change), serial and with two workers. Saturated runs alone cannot catch
// a lost cooldown rule — there every router absorbs something nearly every
// cycle — so each case also runs at load 0.2, where a router often injects
// and claims a global output with nothing arriving.
func TestPBTablesTrackCredits(t *testing.T) {
	for _, flow := range []FlowControl{VCT, WH} {
		for _, tc := range []struct {
			load    float64
			workers int
		}{{1.0, 1}, {1.0, 2}, {0.2, 1}, {0.2, 2}} {
			t.Run(fmt.Sprintf("%v/load=%v/workers=%d", flow, tc.load, tc.workers), func(t *testing.T) {
				cfg := testConfig(t, 2, core.PB, tc.load)
				cfg.Flow, cfg.Workers = flow, tc.workers
				cfg.Warmup, cfg.Measure = 200, 1200
				cfg.BufGlobal = 32 // shallow enough for saturation to fill
				if flow == VCT {
					advg, err := traffic.NewAdversarialGlobal(cfg.Topo, cfg.Topo.H)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Workload = single(t, cfg.Topo, advg, cfg.Workload.Jobs[0].Phases[0].Process)
				}
				sim, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				step := sim.stepBlock
				if sim.shape.workers > 1 {
					var stop func()
					step, stop = sim.startWorkers()
					defer stop()
				}
				p := sim.topo
				thr := cfg.Routing.PBThreshold
				blocks, set, unset := 0, 0, 0
				checked := func(n int) {
					step(n)
					blocks++
					for i := range sim.routers {
						r := &sim.routers[i]
						idx := p.IndexInGroup(r.id)
						tables := sim.pb[r.group]
						for port := p.GlobalPortBase(); port < p.EjectPortBase(); port++ {
							var occ, cap int32
							for _, c := range r.outCredits(port) {
								occ += r.out[port].capacity - c
								cap += r.out[port].capacity
							}
							want := float64(occ) >= thr*float64(cap)
							k := p.GlobalChannelOfPort(idx, port)
							if got := tables[sim.cycle&1][k]; got != want {
								t.Fatalf("cycle %d, router %d port %d: bit %v, credits give %v (occupancy %d of %d)",
									sim.cycle, r.id, port, got, want, occ, cap)
							}
							if got := tables[^sim.cycle&1][k]; r.pbCooldown == 0 && got != want {
								t.Fatalf("cycle %d, router %d port %d: cooldown over, other table's bit %v, credits give %v",
									sim.cycle, r.id, port, got, want)
							}
							if want {
								set++
							} else {
								unset++
							}
						}
					}
				}
				if _, err := sim.run(context.Background(), checked); err != nil {
					t.Fatal(err)
				}
				if blocks < 10 || set == 0 || unset == 0 {
					t.Fatalf("%d blocks, %d set and %d unset bits checked: the run never exercised the tables", blocks, set, unset)
				}
			})
		}
	}
}

// TestInjectionQueueFIFO: packets from one node are delivered in
// generation order when they share source and destination (no reordering
// inside a VC chain under deterministic minimal routing).
func TestInjectionQueueFIFO(t *testing.T) {
	cfg := testConfig(t, 2, core.Minimal, 0)
	burst, err := traffic.NewBurst(6, cfg.Topo.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, fixedPair{}, burst)
	cfg.Warmup, cfg.Measure = 0, 0
	cfg.MaxCycles = 100000
	res := run(t, cfg)
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	if res.Delivered != int64(6*cfg.Topo.Nodes) {
		t.Fatalf("delivered %d", res.Delivered)
	}
}

// fixedPair sends node n's traffic to node (n+7h) mod N, a fixed permutation.
type fixedPair struct{}

func (fixedPair) Dest(src int, _ *rng.PCG) int { return (src + 61) % 72 }
func (fixedPair) Name() string                 { return "fixedpair" }
