package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/traffic"
)

// burstWorkload is one whole-network burst phase of the given per-node
// packet count, active for duration cycles (0 = until drained).
func burstWorkload(t *testing.T, cfg *Config, packets int, duration int64) {
	t.Helper()
	p := cfg.Topo
	proc, err := traffic.NewBurst(packets, p.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	w, err := traffic.NewWorkload(p.Nodes, traffic.Job{First: 0, Last: p.Nodes - 1,
		Phases: []traffic.Phase{{
			Pattern: traffic.NewUniform(p), Process: proc, Duration: duration,
			Label: "burst", TotalPackets: int64(packets * p.Nodes),
		}}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = w
	cfg.Warmup, cfg.Measure, cfg.MaxCycles = 0, 0, 100000
}

// TestRunExits walks every way out of Sim.run, serially and on the parallel
// step: the end of a steady run, a finite workload drained by its declared
// total, one drained by a phase cut short (the total never arrives), one
// that outlives MaxCycles (reported as a deadlock), the watchdog, and a
// cancellation observed at a 1,024-cycle poll.
func TestRunExits(t *testing.T) {
	cases := []struct {
		name  string
		cfg   func(t *testing.T) Config
		wedge bool // swap in deadlockRing behind the validator's back
		polls int  // cancel at the poll after this many (0 = never)
		check func(t *testing.T, s *Sim, res metrics.Result)
	}{
		{"steady end", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.RLM, 0.3)
			cfg.Warmup, cfg.Measure = 300, 700
			return cfg
		}, false, 0, func(t *testing.T, s *Sim, res metrics.Result) {
			if res.Deadlock || s.Cycle() != 1000 || res.Cycles != 700 {
				t.Fatalf("deadlock %v at cycle %d, %d measured; want a clean end at 300+700", res.Deadlock, s.Cycle(), res.Cycles)
			}
		}},
		{"burst drained by total", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.RLM, 0)
			burstWorkload(t, &cfg, 10, 0)
			return cfg
		}, false, 0, func(t *testing.T, s *Sim, res metrics.Result) {
			if res.Deadlock || res.Delivered != s.workload.Total() || s.Cycle() >= 100000 {
				t.Fatalf("deadlock %v, delivered %d of %d, cycle %d", res.Deadlock, res.Delivered, s.workload.Total(), s.Cycle())
			}
		}},
		{"burst drained by a cut-short phase", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.RLM, 0)
			burstWorkload(t, &cfg, 500, 60) // 60 cycles cannot inject 500 packets per node
			return cfg
		}, false, 0, func(t *testing.T, s *Sim, res metrics.Result) {
			if res.Deadlock || res.Generated == 0 || res.Generated >= s.workload.Total() ||
				res.Delivered != res.Generated || s.Cycle() <= 60 || s.Cycle() >= 100000 {
				t.Fatalf("deadlock %v, generated %d of %d, delivered %d, cycle %d",
					res.Deadlock, res.Generated, s.workload.Total(), res.Delivered, s.Cycle())
			}
		}},
		{"burst past MaxCycles", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.RLM, 0)
			burstWorkload(t, &cfg, 20, 0)
			cfg.MaxCycles = 90
			return cfg
		}, false, 0, func(t *testing.T, s *Sim, res metrics.Result) {
			if !res.Deadlock || s.Cycle() != 90 {
				t.Fatalf("deadlock %v at cycle %d; an undrained burst at MaxCycles 90 is a deadlock", res.Deadlock, s.Cycle())
			}
		}},
		{"watchdog", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.Minimal, 0.9)
			cfg.Flow, cfg.PacketPhits, cfg.BufLocal = WH, 40, 8 // packets span several routers
			proc, err := traffic.NewBernoulli(0.9, 40)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = single(t, cfg.Topo, nil, proc)
			cfg.Warmup, cfg.Measure, cfg.Watchdog = 0, 50000, 500
			return cfg
		}, true, 0, func(t *testing.T, s *Sim, res metrics.Result) {
			if !res.Deadlock || s.Cycle() >= 50000 {
				t.Fatalf("deadlock %v at cycle %d; the watchdog should have fired on the wedged ring", res.Deadlock, s.Cycle())
			}
		}},
		{"canceled", func(t *testing.T) Config {
			return testConfig(t, 2, core.RLM, 0.3)
		}, false, 1, func(t *testing.T, s *Sim, res metrics.Result) {
			if s.Cycle() != 1024 {
				t.Fatalf("canceled at cycle %d, want the poll at 1024", s.Cycle())
			}
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cfg := tc.cfg(t)
				cfg.Workers = workers
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.wedge {
					for i := range s.routers {
						s.routers[i].alg = &deadlockRing{topo: cfg.Topo}
					}
				}
				ctx := context.Background()
				if tc.polls > 0 {
					ctx = &cancelAt{Context: ctx, polls: tc.polls}
				}
				res, err := s.RunContext(ctx)
				if canceled := tc.polls > 0; canceled != errors.Is(err, context.Canceled) || (!canceled && err != nil) {
					t.Fatalf("RunContext returned %v", err)
				}
				tc.check(t, s, res)
			})
		}
	}
}
