package engine

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// schedule compiles a boot fault set and events into the engine's fault
// timeline; a nil boot is the pristine network of p.
func schedule(t *testing.T, p *topology.P, boot *topology.FaultSet, events ...topology.Event) *topology.Schedule {
	t.Helper()
	if boot == nil {
		boot = topology.NewFaultSet(p)
	}
	s, err := topology.NewSchedule(boot, events)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// faultedConfig is testConfig plus a seeded degraded topology: 15% of
// global and 5% of local links down, with one extra mid-run kill/repair
// pair so the dynamic path is exercised too.
func faultedConfig(t *testing.T, spec core.Spec, load float64) Config {
	t.Helper()
	cfg := testConfig(t, 2, spec, load)
	f := topology.NewFaultSet(cfg.Topo)
	if err := topology.RandomFaults(f, 0.15, 0.05, 99); err != nil {
		t.Fatal(err)
	}
	gp := cfg.Topo.GlobalPortBase()
	cfg.Faults = schedule(t, cfg.Topo, f,
		topology.Event{At: 500, Router: 3, Port: gp},
		topology.Event{At: 1200, Repair: true, Router: 3, Port: gp})
	return cfg
}

// TestFaultConservationAllMechanisms is the packet- and credit-conservation
// invariant over degraded topologies, across every mechanism: when a finite
// (burst) workload drains on a faulted network, generated == injected +
// injection-lost, injected == delivered + fault-dropped, nothing stays
// live, and every credit counter returns to its buffer's capacity.
func TestFaultConservationAllMechanisms(t *testing.T) {
	specs := []core.Spec{
		core.Minimal, core.Valiant, core.PB, core.PAR62,
		core.RLM, core.RLMSignOnly, core.OLM, core.OFAR,
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) {
			cfg := faultedConfig(t, spec, 0)
			burst, err := traffic.NewBurst(10, cfg.Topo.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = single(t, cfg.Topo, nil, burst)
			cfg.Warmup, cfg.Measure = 0, 0
			cfg.MaxCycles = 400000
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Deadlock {
				t.Fatal("faulted burst deadlocked")
			}
			// Let stragglers on the links land (dead links still carry
			// committed traffic and credits under drain-then-die).
			for i := 0; i < 3*cfg.LatGlobal; i++ {
				sim.stepBlock(1)
			}
			var sheet metrics.Sheet
			for i := range sim.sheets {
				sheet.Merge(&sim.sheets[i])
			}
			if sheet.Generated != sheet.Injected+sheet.InjectionLost+sheet.Suppressed {
				t.Fatalf("generated %d != injected %d + lost %d + suppressed %d",
					sheet.Generated, sheet.Injected, sheet.InjectionLost, sheet.Suppressed)
			}
			_, live, _ := sim.totals()
			if live != 0 {
				t.Fatalf("%d packets still live after drain", live)
			}
			if sheet.Injected != sheet.Delivered+sheet.FaultDrops {
				t.Fatalf("injected %d != delivered %d + fault-dropped %d",
					sheet.Injected, sheet.Delivered, sheet.FaultDrops)
			}
			if sheet.Delivered == 0 {
				t.Fatal("nothing delivered on the degraded network")
			}
			for i := range sim.routers {
				r := &sim.routers[i]
				for port := range r.out {
					op := &r.out[port]
					if op.activeVCs != 0 {
						t.Fatalf("router %d out %d: dangling transfers %b", r.id, port, op.activeVCs)
					}
					if op.link == nil {
						continue
					}
					for vc, c := range r.outCredits(port) {
						if c != op.capacity {
							t.Fatalf("router %d out(%d,%d): %d credits, capacity %d",
								r.id, port, vc, c, op.capacity)
						}
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
			// Minimal has no alternative paths, so a degraded network must
			// visibly cost it packets; that the invariants above still hold
			// is exactly what the drop sink guarantees.
			if spec == core.Minimal && sheet.FaultDrops == 0 {
				t.Fatal("Minimal dropped nothing on a degraded network")
			}
		})
	}
}

// TestParkedRouterConservation is the suppression side of the ledger: with
// one router dead from cycle 0 and another killed mid-drain, generation
// events at parked nodes are suppressed (counted, never injected),
// ejections destined to parked nodes drop, the burst still drains, and the
// conservation identity gains its fourth column:
// generated == injected + injection-lost + suppressed.
func TestParkedRouterConservation(t *testing.T) {
	for _, spec := range []core.Spec{core.Minimal, core.OLM, core.OFAR} {
		t.Run(spec.String(), func(t *testing.T) {
			cfg := testConfig(t, 2, spec, 0)
			f := topology.NewFaultSet(cfg.Topo)
			f.SetRouter(3, true)
			cfg.Faults = schedule(t, cfg.Topo, f, topology.Event{At: 300, Router: 8, Port: topology.WholeRouter})
			burst, err := traffic.NewBurst(10, cfg.Topo.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Workload = single(t, cfg.Topo, nil, burst)
			cfg.Warmup, cfg.Measure = 0, 0
			cfg.MaxCycles = 400000
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Deadlock {
				t.Fatal("parked-router burst deadlocked")
			}
			for i := 0; i < 3*cfg.LatGlobal; i++ {
				sim.stepBlock(1)
			}
			var sheet metrics.Sheet
			for i := range sim.sheets {
				sheet.Merge(&sim.sheets[i])
			}
			// Router 3's nodes are parked for the whole run: their entire
			// burst (h nodes × 10 packets) must be suppressed, plus whatever
			// router 8's nodes had not injected by cycle 300.
			min := int64(cfg.Topo.H * 10)
			if sheet.Suppressed < min {
				t.Fatalf("suppressed %d < %d (the parked router's full burst)", sheet.Suppressed, min)
			}
			if sheet.Generated != sheet.Injected+sheet.InjectionLost+sheet.Suppressed {
				t.Fatalf("generated %d != injected %d + lost %d + suppressed %d",
					sheet.Generated, sheet.Injected, sheet.InjectionLost, sheet.Suppressed)
			}
			if sheet.Injected != sheet.Delivered+sheet.FaultDrops {
				t.Fatalf("injected %d != delivered %d + fault-dropped %d",
					sheet.Injected, sheet.Delivered, sheet.FaultDrops)
			}
			if sheet.FaultDrops == 0 {
				t.Fatal("no fault drops: traffic toward the parked routers must be shed")
			}
			if _, live, _ := sim.totals(); live != 0 {
				t.Fatalf("%d packets still live after drain", live)
			}
		})
	}
}

// TestAdaptiveRetainsLoadUnderFaults is the resilience headline at test
// scale: with a fifth of the global links gone, OLM routes around the
// failures while Minimal sheds all traffic whose only channel died.
func TestAdaptiveRetainsLoadUnderFaults(t *testing.T) {
	runSpec := func(spec core.Spec) metrics.Result {
		cfg := testConfig(t, 2, spec, 0.2)
		f := topology.NewFaultSet(cfg.Topo)
		if err := topology.RandomFaults(f, 0.2, 0, 4); err != nil {
			t.Fatal(err)
		}
		cfg.Faults = schedule(t, cfg.Topo, f)
		return run(t, cfg)
	}
	minimal := runSpec(core.Minimal)
	olm := runSpec(core.OLM)
	if minimal.FaultDrops == 0 {
		t.Fatal("Minimal dropped nothing with 20% of global links down")
	}
	if olm.FaultDrops*10 > minimal.FaultDrops {
		t.Fatalf("OLM dropped %d packets, Minimal %d: adaptive routing should avoid almost all drops",
			olm.FaultDrops, minimal.FaultDrops)
	}
	if olm.AcceptedLoad <= minimal.AcceptedLoad {
		t.Fatalf("OLM accepted %.4f <= Minimal %.4f on the degraded network",
			olm.AcceptedLoad, minimal.AcceptedLoad)
	}
}

// TestDynamicKillAndRepair kills one specific global channel mid-run and
// repairs it later: fault drops must appear only during the outage, and
// the run must neither deadlock nor keep dropping after the repair.
func TestDynamicKillAndRepair(t *testing.T) {
	cfg := testConfig(t, 2, core.Minimal, 0.2)
	cfg.Warmup, cfg.Measure = 0, 6000
	cfg.WindowCycles = 500
	kill, repair := int64(2000), int64(4000)
	port := cfg.Topo.GlobalPortBase()
	cfg.Faults = schedule(t, cfg.Topo, nil,
		topology.Event{At: kill, Router: 0, Port: port},
		topology.Event{At: repair, Repair: true, Router: 0, Port: port})
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatal("deadlock across the kill/repair cycle")
	}
	if res.FaultDrops == 0 {
		t.Fatal("no fault drops during the outage")
	}
	tl := res.Timeline
	if tl == nil {
		t.Fatal("no timeline")
	}
	var before, during, after int64
	for _, w := range tl.Windows {
		switch {
		case w.End <= kill:
			before += w.FaultDrops
		case w.Start >= kill && w.End <= repair:
			during += w.FaultDrops
		case w.Start >= repair+500: // one window of slack for sink drains
			after += w.FaultDrops
		}
	}
	if before != 0 {
		t.Fatalf("%d fault drops before the kill", before)
	}
	if during == 0 {
		t.Fatal("no fault drops during the outage windows")
	}
	if after != 0 {
		t.Fatalf("%d fault drops after the repair", after)
	}
}

// TestEmptyFaultSetInert: a run with an armed but all-alive fault set (the
// fault queries answer false everywhere) must be bit-identical to a run
// with no fault set at all — the guarantee that fault support costs
// fault-free configurations nothing, including RNG draw sequence.
func TestEmptyFaultSetInert(t *testing.T) {
	for _, spec := range []core.Spec{core.Minimal, core.Valiant, core.PB, core.OLM, core.OFAR} {
		plain := run(t, testConfig(t, 2, spec, 0.25))
		cfg := testConfig(t, 2, spec, 0.25)
		cfg.Faults = schedule(t, cfg.Topo, nil)
		armed := run(t, cfg)
		if !reflect.DeepEqual(plain, armed) {
			t.Fatalf("%v: empty fault set changed the result:\n  plain: %+v\n  armed: %+v", spec, plain, armed)
		}
	}
}

// TestStaleCyclesDelayFaultView: with StaleCycles set, a link kill stops
// traffic immediately (packets queue against the dead link) but the
// routing view — and therefore the unroutable-packet drops — only react
// StaleCycles later, once the delayed table recomputation lands. The
// stale=0 spelling of the same scenario must drop within the kill window,
// pinning that the knob's default is instantaneous link-state knowledge.
func TestStaleCyclesDelayFaultView(t *testing.T) {
	const (
		kill   = int64(2000)
		stale  = int64(1500)
		window = int64(500)
	)
	build := func(staleCycles int64) Config {
		cfg := testConfig(t, 2, core.Minimal, 0.2)
		cfg.Warmup, cfg.Measure = 0, 8000
		cfg.WindowCycles = window
		cfg.StaleCycles = staleCycles
		cfg.Faults = schedule(t, cfg.Topo, nil, topology.Event{At: kill, Router: 0, Port: cfg.Topo.GlobalPortBase()})
		return cfg
	}
	dropsBy := func(cfg Config) (early, late int64) {
		t.Helper()
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultDrops == 0 {
			t.Fatal("no fault drops; the scenario proves nothing")
		}
		for _, w := range res.Timeline.Windows {
			// One window of slack: a drop claimed at cycle c drains its
			// phits through the sink and is recorded a few cycles later.
			if w.End <= kill+stale {
				early += w.FaultDrops
			} else if w.Start >= kill+stale+window {
				late += w.FaultDrops
			}
		}
		return early, late
	}
	early, late := dropsBy(build(stale))
	if early != 0 {
		t.Fatalf("%d fault drops before the stale view caught up", early)
	}
	if late == 0 {
		t.Fatal("no fault drops after the stale view caught up")
	}
	// The same scenario with instantaneous link state drops within the
	// kill windows the stale run kept clean.
	instEarly, _ := dropsBy(build(0))
	if instEarly == 0 {
		t.Fatal("stale=0 run did not drop inside the stale window")
	}
}
