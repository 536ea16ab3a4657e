package engine

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// faultedDeterminismConfig arms a config with a degraded topology plus
// mid-run kill and repair events, so the fault paths (drop sink, dead-port
// masks, cycle-boundary event application) face the worker-count check.
func faultedDeterminismConfig(t *testing.T, cfg Config, extra ...topology.Event) Config {
	t.Helper()
	f := topology.NewFaultSet(cfg.Topo)
	if err := topology.RandomFaults(f, 0.2, 0.05, 11); err != nil {
		t.Fatal(err)
	}
	gp := cfg.Topo.GlobalPortBase()
	cfg.Faults = schedule(t, cfg.Topo, f, append([]topology.Event{
		{At: 1800, Router: 5, Port: gp},
		{At: 2600, Router: 1, Port: 0},
		{At: 3400, Repair: true, Router: 5, Port: gp},
	}, extra...)...)
	cfg.WindowCycles = 300 // exercise window merging (incl. FaultDrops)
	return cfg
}

// routerFaultedDeterminismConfig layers a whole-router outage and a link
// flap burst (the expanded form of a FlapSpec) onto the degraded base, so
// parked-node suppression, dead-port masks spanning every port class and
// storms of same-cycle plan invalidations face the worker-count check.
func routerFaultedDeterminismConfig(t *testing.T, cfg Config) Config {
	t.Helper()
	gp := cfg.Topo.GlobalPortBase()
	events := []topology.Event{
		{At: 1500, Router: 7, Port: topology.WholeRouter},
		{At: 3200, Repair: true, Router: 7, Port: topology.WholeRouter},
	}
	for k := int64(0); k < 4; k++ { // four flap periods on router 2's first global port
		at := 1600 + 300*k
		events = append(events,
			topology.Event{At: at, Router: 2, Port: gp},
			topology.Event{At: at + 150, Repair: true, Router: 2, Port: gp})
	}
	return faultedDeterminismConfig(t, cfg, events...)
}

// TestDeterminismAcrossWorkerCounts is the guardrail for the package's
// central promise ("results identical to serial execution") and for the
// activity-driven stepping: the full metrics.Result — every counter,
// latency average and percentile — must be bit-identical between serial
// and 4-worker execution. Configurations cover both flow controls, a
// low-load point (where most routers idle and the skip path dominates), a
// saturation point, Piggybacking (whose double-buffered congestion tables
// have their own refresh-skipping logic), OFAR (escape-ring bubble flow
// control), and degraded topologies with mid-run link kills/repairs
// (drop-sink accounting and cycle-boundary fault application).
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"VCT/RLM/low", func(t *testing.T) Config {
			return testConfig(t, 2, core.RLM, 0.05)
		}},
		{"VCT/RLM/saturation", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.RLM, 1.0)
			proc, err := traffic.NewBernoulli(1.0, 8)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = single(t, cfg.Topo, nil, proc)
			return cfg
		}},
		{"VCT/PB/low", func(t *testing.T) Config {
			return testConfig(t, 2, core.PB, 0.1)
		}},
		{"WH/PAR62", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.PAR62, 0.3)
			cfg.Flow = WH
			cfg.PacketPhits = 40
			proc, err := traffic.NewBernoulli(0.3, 40)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = single(t, cfg.Topo, nil, proc)
			return cfg
		}},
		{"VCT/OFAR", func(t *testing.T) Config {
			return testConfig(t, 2, core.OFAR, 0.35)
		}},
		{"VCT/Minimal/faulted", func(t *testing.T) Config {
			return faultedDeterminismConfig(t, testConfig(t, 2, core.Minimal, 0.25))
		}},
		{"VCT/OLM/faulted", func(t *testing.T) Config {
			return faultedDeterminismConfig(t, testConfig(t, 2, core.OLM, 0.3))
		}},
		{"VCT/OFAR/faulted", func(t *testing.T) Config {
			return faultedDeterminismConfig(t, testConfig(t, 2, core.OFAR, 0.3))
		}},
		{"WH/RLM/faulted", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.RLM, 0.3)
			cfg.Flow = WH
			cfg.PacketPhits = 40
			proc, err := traffic.NewBernoulli(0.3, 40)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = single(t, cfg.Topo, nil, proc)
			return faultedDeterminismConfig(t, cfg)
		}},
		{"VCT/OLM/faulted/stale", func(t *testing.T) Config {
			// Stale link state: the routing view lags the kill/repair
			// events, so the delayed table recomputations (and the plan
			// invalidations they trigger) cross worker shards.
			cfg := faultedDeterminismConfig(t, testConfig(t, 2, core.OLM, 0.3))
			cfg.StaleCycles = 350
			return cfg
		}},
		{"VCT/Minimal/faulted/stale", func(t *testing.T) Config {
			cfg := faultedDeterminismConfig(t, testConfig(t, 2, core.Minimal, 0.25))
			cfg.StaleCycles = 500
			return cfg
		}},
		{"VCT/OLM/routerfail+flap", func(t *testing.T) Config {
			return routerFaultedDeterminismConfig(t, testConfig(t, 2, core.OLM, 0.3))
		}},
		{"WH/PB/routerfail+flap", func(t *testing.T) Config {
			cfg := testConfig(t, 2, core.PB, 0.3)
			cfg.Flow = WH
			cfg.PacketPhits = 40
			proc, err := traffic.NewBernoulli(0.3, 40)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = single(t, cfg.Topo, nil, proc)
			return routerFaultedDeterminismConfig(t, cfg)
		}},
		{"VCT/OFAR/routerfail+flap/stale", func(t *testing.T) Config {
			cfg := routerFaultedDeterminismConfig(t, testConfig(t, 2, core.OFAR, 0.3))
			cfg.StaleCycles = 250
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := tc.cfg(t)
			serial.Workers = 1
			parallel := tc.cfg(t)
			parallel.Workers = 4
			simA, err := New(serial)
			if err != nil {
				t.Fatal(err)
			}
			a, err := simA.Run()
			if err != nil {
				t.Fatal(err)
			}
			simB, err := New(parallel)
			if err != nil {
				t.Fatal(err)
			}
			b, err := simB.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("worker count changed the result:\n  1 worker : %+v\n  4 workers: %+v", a, b)
			}
			if a.Delivered == 0 {
				t.Fatal("nothing delivered; the comparison proved nothing")
			}
			if serial.Faults != nil && a.FaultDrops == 0 {
				t.Fatal("no fault drops; the faulted comparison proved nothing")
			}
			if serial.Faults != nil && serial.Faults.RouterFaults && a.Suppressed == 0 {
				t.Fatal("no suppressed injections; the router-failure comparison proved nothing")
			}
		})
	}
}

// TestDeterminismBurstDrain covers the finite-process path: with most of
// the drain spent in a nearly-idle network, the skip logic must not
// change the drain time or any delivery statistic across worker counts.
func TestDeterminismBurstDrain(t *testing.T) {
	build := func(t *testing.T, workers int) Config {
		cfg := testConfig(t, 2, core.OLM, 0)
		burst, err := traffic.NewBurst(12, cfg.Topo.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload = single(t, cfg.Topo, nil, burst)
		cfg.Warmup, cfg.Measure = 0, 0
		cfg.MaxCycles = 200000
		cfg.Workers = workers
		return cfg
	}
	a, b := run(t, build(t, 1)), run(t, build(t, 4))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker count changed the burst result:\n  1 worker : %+v\n  4 workers: %+v", a, b)
	}
	if a.ConsumptionCycles <= 0 {
		t.Fatalf("burst did not drain (consumption %d)", a.ConsumptionCycles)
	}
}
