package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// TestInjectionMatchesCycleTrials holds the appointments to the process's
// definition, independently of the engine: every node of a phased steady
// workload, replayed outside the engine with one Bernoulli trial per cycle
// from the node's own stream and the pattern's destination draw after each
// success, must generate in the same windows and phases as the engine's
// run. Both block-stepped paths share the injection code, so only an
// outside replay catches a lookahead that draws past a phase change or the
// wrong interleaving of trials and destination draws.
func TestInjectionMatchesCycleTrials(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			cfg := testConfig(t, 2, core.Minimal, 0)
			p := cfg.Topo
			bernoulli := func(load float64) traffic.Process {
				proc, err := traffic.NewBernoulli(load, 8)
				if err != nil {
					t.Fatal(err)
				}
				return proc
			}
			advg, err := traffic.NewAdversarialGlobal(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			advl, err := traffic.NewAdversarialLocal(p, 1)
			if err != nil {
				t.Fatal(err)
			}
			mix, err := traffic.NewMix(advg, advl, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			un := traffic.NewUniform(p)
			half := p.Nodes / 2
			w, err := traffic.NewWorkload(p.Nodes,
				traffic.Job{First: 0, Last: half - 1, Phases: []traffic.Phase{
					{Pattern: un, Process: bernoulli(0.3), Duration: 200, Label: "UN"},
					{Pattern: mix, Process: bernoulli(0.02), Duration: 301, Label: "MIX"},
					{Pattern: advg, Process: bernoulli(0.05), Label: "ADVG"},
				}},
				traffic.Job{First: half, Last: p.Nodes - 1, Phases: []traffic.Phase{
					{Pattern: un, Process: bernoulli(0.1), Duration: 517, Label: "bg"},
				}})
			if err != nil {
				t.Fatal(err)
			}
			const window = 25
			cfg.Workload, cfg.Workers = w, workers
			cfg.Warmup, cfg.Measure, cfg.WindowCycles = 0, 1500, window
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.InjectionLost != 0 {
				t.Fatalf("%d injections lost: the replay assumes every event draws its destination", res.InjectionLost)
			}

			perWindow := make([]int64, len(res.Timeline.Windows))
			perPhase := make([]int64, w.TotalPhases())
			for node := range p.Nodes {
				ji := w.JobOf(node)
				var r rng.PCG
				r.Seed(cfg.Seed, uint64(node)*2+2_000_000)
				var cur int32
				for c := range cfg.Measure {
					pi, active := w.PhaseAt(ji, c, &cur)
					if !active {
						break
					}
					ph := &w.Jobs[ji].Phases[pi]
					if !ph.Process.(*traffic.Bernoulli).Generate(node, c, &r) {
						continue
					}
					ph.Pattern.Dest(node, &r)
					perWindow[c/window]++
					perPhase[w.PhaseID(ji, pi)]++
				}
			}
			for i, win := range res.Timeline.Windows {
				if win.Generated != perWindow[i] {
					t.Fatalf("window %d (cycles %d-%d): engine generated %d, per-cycle replay %d",
						i, win.Start, win.End, win.Generated, perWindow[i])
				}
			}
			for i, d := range res.PhaseDigests {
				if d.Generated != perPhase[i] || d.Generated == 0 {
					t.Fatalf("phase %d (%s): engine generated %d, per-cycle replay %d", i, d.Label, d.Generated, perPhase[i])
				}
			}
		})
	}
}
