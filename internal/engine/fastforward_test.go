package engine

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// sparseBurstConfig builds the dead blocks' target scenario: short bursts
// separated by silent gaps thousands of cycles long, during which no router
// has arrivals or buffered work. Dead blocks must cover those gaps without
// changing a single Result field.
func sparseBurstConfig(t *testing.T, workers int) Config {
	return burstConfig(t, workers, [2]int{4, 6000}, [2]int{4, 6000}, [2]int{4, 6000})
}

// burstConfig builds an h=2 OLM run of one job through uniform burst
// phases, one per (packets per node, duration) pair.
func burstConfig(t *testing.T, workers int, bursts ...[2]int) Config {
	t.Helper()
	cfg := testConfig(t, 2, core.OLM, 0)
	p := cfg.Topo
	var phases []traffic.Phase
	for _, b := range bursts {
		proc, err := traffic.NewBurst(b[0], p.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		phases = append(phases, traffic.Phase{
			Pattern:      traffic.NewUniform(p),
			Process:      proc,
			Duration:     int64(b[1]),
			Label:        "burst",
			TotalPackets: int64(b[0] * p.Nodes),
		})
	}
	w, err := traffic.NewWorkload(p.Nodes, traffic.Job{First: 0, Last: p.Nodes - 1, Phases: phases})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	cfg.Warmup, cfg.Measure = 0, 0
	cfg.MaxCycles = 100000
	cfg.WindowCycles = 500 // windows must zero-fill identically over dead blocks
	cfg.Workers = workers
	return cfg
}

// runSim runs cfg on a fresh Sim, the reference path (stepEveryCycle) when
// ref is set, and returns the Sim with its Result.
func runSim(t *testing.T, cfg Config, ref bool) (*Sim, metrics.Result) {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		stepEveryCycle(sim)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return sim, res
}

// TestFastForwardBitIdentity is the dead blocks' regression gate: a sparse
// burst workload with long silent gaps, and a sparse steady one whose empty
// spans end at the nodes' appointments, must produce a Result (and
// Timeline) deep-equal to the reference path that steps every router every
// cycle, serially and in parallel — and the blocked path must actually
// take dead blocks, or the test proves nothing.
func TestFastForwardBitIdentity(t *testing.T) {
	// The steady case: a Bernoulli background at load 0.001 empties the
	// fabric between packets. Piggybacking adds the cooldown clause.
	for _, spec := range []core.Spec{core.Minimal, core.PB} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("steady/%s/w%d", spec, workers), func(t *testing.T) {
				build := func() Config {
					cfg := testConfig(t, 2, spec, 0.001)
					cfg.Workers, cfg.WindowCycles, cfg.Measure = workers, 500, 12000
					return cfg
				}
				sim, a := runSim(t, build(), false)
				ref, b := runSim(t, build(), true)
				if !reflect.DeepEqual(a, b) || sim.Cycle() != ref.Cycle() {
					t.Fatalf("dead blocks changed the steady result:\n  blocked  : %+v\n  reference: %+v", a, b)
				}
				if a.Delivered == 0 || a.Timeline == nil || sim.ffJumped == 0 || ref.ffJumped != 0 {
					t.Fatalf("delivered %d, dead cycles %d (reference %d): the comparison proved nothing",
						a.Delivered, sim.ffJumped, ref.ffJumped)
				}
			})
		}
	}

	type outcome struct {
		name    string
		workers int
		ref     bool
	}
	runs := []outcome{
		{"serial/dead", 1, false},
		{"serial/ref", 1, true},
		{"parallel/dead", 4, false},
		{"parallel/ref", 4, true},
	}
	sims := make([]*Sim, len(runs))
	results := make([]metrics.Result, len(runs))
	for i, rr := range runs {
		sims[i], results[i] = runSim(t, sparseBurstConfig(t, rr.workers), rr.ref)
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
	// hundred cycles each, so dead blocks must cover most of the span.
	// Cycle() agrees across paths (it is part of the contract); the proof
	// that dead blocks were taken is in the internal counter below.
	if got := sims[0].Cycle(); got < 12000 {
		t.Fatalf("run ended at cycle %d; the gaps never existed", got)
	}
	if sims[0].ffJumped == 0 || sims[2].ffJumped == 0 {
		t.Fatal("the blocked path took no dead block; the comparison proved nothing")
	}
	if sims[1].ffJumped != 0 || sims[3].ffJumped != 0 {
		t.Fatal("the reference path took a dead block")
	}
}

// TestFastForwardFaultHorizons pins the dead blocks' event cuts: a fault
// event (and its stale routing-view horizon) landing inside a silent gap
// must be applied at exactly its cycle, so the faulted Result stays
// identical to the reference path's.
func TestFastForwardFaultHorizons(t *testing.T) {
	build := func() Config {
		cfg := sparseBurstConfig(t, 1)
		gp := cfg.Topo.GlobalPortBase()
		cfg.Faults = schedule(t, cfg.Topo, nil,
			topology.Event{At: 2500, Router: 3, Port: gp},               // inside the first gap
			topology.Event{At: 8200, Repair: true, Router: 3, Port: gp}) // inside the second
		cfg.StaleCycles = 700 // view horizon lands in a gap too
		return cfg
	}
	sim, a := runSim(t, build(), false)
	_, b := runSim(t, build(), true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("dead blocks changed the faulted result:\n  blocked  : %+v\n  reference: %+v", a, b)
	}
	if a.Delivered == 0 || sim.ffJumped == 0 {
		t.Fatal("nothing delivered or no dead block; the comparison proved nothing")
	}
}

// TestFastForwardCutShortBurst pins the dead blocks' last-change cut: a
// burst cut short by its phase's duration leaves the workload's total
// unreachable, so the run ends by the drain test's second clause, on the
// first cycle after the last phase change. The silence before that change
// is a dead block, and the one after it must last a single cycle.
func TestFastForwardCutShortBurst(t *testing.T) {
	build := func() Config { return burstConfig(t, 1, [2]int{1000, 50}, [2]int{4, 3000}) }
	sim, a := runSim(t, build(), false)
	ref, b := runSim(t, build(), true)
	if !reflect.DeepEqual(a, b) || sim.Cycle() != ref.Cycle() {
		t.Fatalf("dead blocks changed the cut-short result:\n  blocked  : cycle %d %+v\n  reference: cycle %d %+v",
			sim.Cycle(), a, ref.Cycle(), b)
	}
	if want := sim.workload.LastChange() + 1; sim.Cycle() != want || sim.ffJumped == 0 {
		t.Fatalf("run ended at cycle %d after %d dead cycles; want cycle %d after some", sim.Cycle(), sim.ffJumped, want)
	}
}

// TestFastForwardPBCooldown pins deadSpan's Piggybacking clause: a block
// is not dead while a router still owes a table refresh. The bursts are
// ADVG+1, so each group's traffic crosses one global channel, and the
// threshold is so low that one outstanding phit reads as congested: a
// burst's last publishes leave that channel's bit set in one parity's
// table, and only the cooldown's idle refreshes clear it once the credits
// are home. A dead block that skipped those refreshes would let the next
// burst's injections read the stale bit and take Valiant detours the
// reference never takes.
func TestFastForwardPBCooldown(t *testing.T) {
	build := func() Config {
		var bursts [][2]int
		for range 6 {
			bursts = append(bursts, [2]int{4, 1500})
		}
		cfg := burstConfig(t, 1, bursts...)
		advg, err := traffic.NewAdversarialGlobal(cfg.Topo, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfg.Workload.Jobs[0].Phases {
			cfg.Workload.Jobs[0].Phases[i].Pattern = advg
		}
		cfg.Spec = core.PB
		cfg.Routing.PBThreshold = 1e-6
		return cfg
	}
	sim, a := runSim(t, build(), false)
	_, b := runSim(t, build(), true)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("dead blocks changed the Piggybacking result:\n  blocked  : %+v\n  reference: %+v", a, b)
	}
	if a.Delivered == 0 || sim.ffJumped == 0 {
		t.Fatal("nothing delivered or no dead block; the comparison proved nothing")
	}
}
