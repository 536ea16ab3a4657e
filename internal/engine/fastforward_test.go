package engine

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// sparseBurstConfig builds the quiet-cycle fast-forward's target scenario:
// short bursts separated by silent gaps thousands of cycles long, during
// which no router has arrivals or buffered work. The fast-forward must jump
// those gaps without changing a single Result field.
func sparseBurstConfig(t *testing.T, workers int, noFF bool) Config {
	t.Helper()
	cfg := testConfig(t, 2, core.OLM, 0)
	p := cfg.Topo
	burst := func(packets int) traffic.Phase {
		proc, err := traffic.NewBurst(packets, p.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		return traffic.Phase{
			Pattern:      traffic.NewUniform(p),
			Process:      proc,
			Duration:     6000,
			Label:        "burst",
			TotalPackets: int64(packets * p.Nodes),
		}
	}
	w, err := traffic.NewWorkload(p.Nodes,
		traffic.Job{First: 0, Last: p.Nodes - 1,
			Phases: []traffic.Phase{burst(4), burst(4), burst(4)}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	cfg.Warmup, cfg.Measure = 0, 0
	cfg.MaxCycles = 100000
	cfg.WindowCycles = 500 // windows must zero-fill identically over jumps
	cfg.Workers = workers
	cfg.NoFastForward = noFF
	return cfg
}

// TestFastForwardBitIdentity is the quiet-cycle fast-forward's regression
// gate: a sparse burst workload with long silent gaps must produce a Result
// (and Timeline) deep-equal to the cycle-by-cycle path, serially and at 4
// workers — and the fast-forward path must actually finish in far fewer
// stepped cycles, or the test proves nothing.
func TestFastForwardBitIdentity(t *testing.T) {
	type outcome struct {
		name string
		cfg  Config
	}
	runs := []outcome{
		{"serial/ff", sparseBurstConfig(t, 1, false)},
		{"serial/noff", sparseBurstConfig(t, 1, true)},
		{"parallel/ff", sparseBurstConfig(t, 4, false)},
		{"parallel/noff", sparseBurstConfig(t, 4, true)},
	}
	sims := make([]*Sim, len(runs))
	results := make([]metrics.Result, len(runs))
	for i, rr := range runs {
		sim, err := New(rr.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = sim
		results[i] = res
	}
	for i := 1; i < len(runs); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("%s result differs from %s:\n  %+v\n  %+v",
				runs[i].name, runs[0].name, results[i], results[0])
		}
	}
	if results[0].Timeline == nil {
		t.Fatal("no timeline; the window zero-fill comparison proved nothing")
	}
	if results[0].Delivered == 0 {
		t.Fatal("nothing delivered; the comparison proved nothing")
	}
	// The run spans three 6000-cycle phases; the bursts drain within a few
	// hundred cycles each, so the fast-forward must skip most of the span.
	// Cycle() agrees across paths (it is part of the contract); the proof
	// that jumping happened is in the internal counter below.
	if got := sims[0].Cycle(); got < 12000 {
		t.Fatalf("run ended at cycle %d; the gaps never existed", got)
	}
	if sims[0].ffJumped == 0 {
		t.Fatal("fast-forward path never jumped; the comparison proved nothing")
	}
	if sims[1].ffJumped != 0 {
		t.Fatal("NoFastForward path jumped")
	}
}

// TestFastForwardFaultHorizons pins the fast-forward's event clamps: a
// fault event (and its stale routing-view horizon) landing inside a silent
// gap must be applied at exactly its cycle, so the faulted Result stays
// identical with and without fast-forwarding.
func TestFastForwardFaultHorizons(t *testing.T) {
	build := func(noFF bool) Config {
		cfg := sparseBurstConfig(t, 1, noFF)
		gp := cfg.Topo.GlobalPortBase()
		cfg.Faults = schedule(t, cfg.Topo, nil,
			topology.Event{At: 2500, Router: 3, Port: gp},               // inside the first gap
			topology.Event{At: 8200, Repair: true, Router: 3, Port: gp}) // inside the second
		cfg.StaleCycles = 700 // view horizon lands in a gap too
		return cfg
	}
	a, b := run(t, build(false)), run(t, build(true))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fast-forward changed the faulted result:\n  ff  : %+v\n  noff: %+v", a, b)
	}
	if a.Delivered == 0 {
		t.Fatal("nothing delivered; the comparison proved nothing")
	}
}
