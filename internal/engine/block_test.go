package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// blockWorkload builds one of the three workload kinds of the block matrix
// over p: "steady" (one ADVG+1 job), "phased" (two jobs: a UN -> ADVG burst ->
// UN schedule on the first half, a bounded UN phase on the second, then
// silence the fast-forward jumps) or "burst" (finite: single cycles only).
func blockWorkload(t *testing.T, p *topology.P, kind string) *traffic.Workload {
	t.Helper()
	bernoulli := func(load float64) traffic.Process {
		proc, err := traffic.NewBernoulli(load, 8)
		if err != nil {
			t.Fatal(err)
		}
		return proc
	}
	burst := func(packets int) traffic.Process {
		proc, err := traffic.NewBurst(packets, p.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		return proc
	}
	un := traffic.NewUniform(p)
	advg, err := traffic.NewAdversarialGlobal(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	switch kind {
	case "steady":
		// Adversarial: global channels congest, so Piggybacking's bits
		// (and every misrouting trigger) flip often.
		return single(t, p, advg, bernoulli(0.35))
	case "burst":
		return single(t, p, nil, burst(6))
	}
	half := p.Nodes / 2
	w, err := traffic.NewWorkload(p.Nodes,
		traffic.Job{First: 0, Last: half - 1, Phases: []traffic.Phase{
			{Pattern: un, Process: bernoulli(0.3), Duration: 400, Label: "UN"},
			{Pattern: advg, Process: burst(4), Duration: 300, Label: "burst", TotalPackets: int64(4 * half)},
			{Pattern: un, Process: bernoulli(0.2), Duration: 300, Label: "UN2"},
		}},
		traffic.Job{First: half, Last: p.Nodes - 1, Phases: []traffic.Phase{
			{Pattern: un, Process: bernoulli(0.15), Duration: 900, Label: "bg"},
		}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// blockFaults arms cfg with one of the three fault kinds of the matrix:
// "none", "static" (a seeded degraded boot set) or "events" (the degraded
// set plus a mid-run link kill and repair — and at h >= 2 a whole-router
// outage — seen by routing through a stale view).
func blockFaults(t *testing.T, cfg *Config, kind string) {
	t.Helper()
	if kind == "none" {
		return
	}
	p := cfg.Topo
	boot := topology.NewFaultSet(p)
	local := 0.05
	if p.H == 1 {
		local = 0 // a group's only local link: losing it partitions the group
	}
	if err := topology.RandomFaults(boot, 0.2, local, 7); err != nil {
		t.Fatal(err)
	}
	var events []topology.Event
	if kind == "events" {
		gp := p.GlobalPortBase()
		events = []topology.Event{
			{At: 450, Router: 1, Port: gp},
			{At: 830, Repair: true, Router: 1, Port: gp},
		}
		if p.H >= 2 {
			events = append(events,
				topology.Event{At: 600, Router: 6, Port: topology.WholeRouter},
				topology.Event{At: 1100, Repair: true, Router: 6, Port: topology.WholeRouter})
		}
		cfg.StaleCycles = 137
	}
	cfg.Faults = schedule(t, p, boot, events...)
}

// TestBlockMatchesCycleStepping is the block stepper's bit-identity gate:
// every configuration must give the same Result — Timeline and phase
// digests included — and end on the same cycle whether the run advances
// in blocks of up to blockMax cycles or one cycle at a time. The matrix
// rotates h 1-3, every mechanism, VCT and wormhole, steady, phased and
// burst workloads, no faults, a static degraded set and stale-viewed
// events, 1-3 workers, and global latencies around every ring-size corner
// with the local latency above and below.
func TestBlockMatchesCycleStepping(t *testing.T) {
	specs := []core.Spec{
		core.Minimal, core.Valiant, core.PB, core.PAR62,
		core.RLM, core.RLMSignOnly, core.OLM, core.OFAR,
	}
	// Block bound per global latency: min(lat, ring - lat), the ring being
	// the power of two >= lat+2.
	blockMaxOf := map[int]int{1: 1, 2: 2, 14: 2, 16: 16, 30: 2, 100: 28}
	lats := []int{1, 2, 14, 16, 30, 100}
	workloads := []string{"steady", "phased", "burst"}
	faults := []string{"none", "static", "events"}
	for i, spec := range specs {
		for j, wl := range workloads {
			h := 1 + (i+j)%3
			latGlobal := lats[(i+2*j)%len(lats)]
			latLocal := latGlobal + 3
			if (i+j)%2 == 1 {
				latLocal = max(1, latGlobal/3)
			}
			flow := VCT
			if j == 1 && !spec.RequiresVCT() {
				flow = WH
			}
			workers := 1 + (i+2*j)%3
			fault := faults[(i+j)%3]
			name := fmt.Sprintf("%s/%s/h%d/%s/lat%d-%d/w%d/%s", spec, flow, h, wl, latLocal, latGlobal, workers, fault)
			t.Run(name, func(t *testing.T) {
				build := func() Config {
					cfg := testConfig(t, h, spec, 0)
					cfg.Flow = flow
					cfg.LatLocal, cfg.LatGlobal = latLocal, latGlobal
					cfg.Workers = workers
					cfg.Workload = blockWorkload(t, cfg.Topo, wl)
					cfg.Warmup, cfg.Measure, cfg.WindowCycles = 300, 1300, 250
					blockFaults(t, &cfg, fault)
					return cfg
				}
				blocked, err := New(build())
				if err != nil {
					t.Fatal(err)
				}
				if blocked.blockMax != blockMaxOf[latGlobal] {
					t.Fatalf("blockMax %d at LatGlobal %d, want %d", blocked.blockMax, latGlobal, blockMaxOf[latGlobal])
				}
				ref, err := New(build())
				if err != nil {
					t.Fatal(err)
				}
				ref.blockMax = 1 // the test hook: the reference steps one cycle per block
				a, err := blocked.Run()
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("blocked stepping changed the result:\n  blocks of %d: %+v\n  one cycle per block: %+v", blocked.blockMax, a, b)
				}
				if blocked.Cycle() != ref.Cycle() {
					t.Fatalf("blocked run ended at cycle %d, one-cycle-per-block run at %d", blocked.Cycle(), ref.Cycle())
				}
				if a.Delivered == 0 || a.Timeline == nil {
					t.Fatal("nothing delivered or no timeline; the comparison proved nothing")
				}
			})
		}
	}
}
