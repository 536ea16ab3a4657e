package engine

import (
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
		sim.stepCycle()
	}
	for i := range sim.routers {
		r := &sim.routers[i]
		for port := range r.out {
			op := &r.out[port]
			if op.link == nil {
				continue
			}
			for vc, c := range op.credits {
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
			for vc := range r.in[port].vcs {
				if !r.in[port].vcs[vc].empty() {
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
		sim.stepCycle()
		if c%100 != 0 {
			continue
		}
		seen := make(map[int64]int)
		for i := range sim.routers {
			r := &sim.routers[i]
			for port := range r.in {
				if r.in[port].link == nil {
					continue // injection queues hold whole packets
				}
				for vc := range r.in[port].vcs {
					buf := &r.in[port].vcs[vc]
					for k := 0; k < buf.count; k++ {
						e := &buf.entries[(buf.head+k)%len(buf.entries)]
						seen[e.pkt.ID]++
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

// TestPBPublishDelay: congestion bits computed in cycle t are visible to
// routing in cycle t+1 (double-buffered), not in cycle t.
func TestPBPublishDelay(t *testing.T) {
	cfg := testConfig(t, 2, core.PB, 0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.pbEnabled {
		t.Fatal("PB tables not enabled")
	}
	// Manually mark channel 0 of group 0 congested in the next buffer.
	sim.pbNext[0][0] = true
	r := &sim.routers[0]
	if r.GlobalCongested(0) {
		t.Fatal("bit visible before the cycle boundary")
	}
	sim.finishCycle() // swap
	if !r.GlobalCongested(0) {
		t.Fatal("bit not visible after the cycle boundary")
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
