package engine

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// testConfig builds a small, fast configuration — the paper's routing
// parameters and buffer sizes over short links — and is the one place the
// engine tests spell every field the engine requires; callers override
// fields.
func testConfig(t testing.TB, h int, spec core.Spec, load float64) Config {
	t.Helper()
	p, err := topology.New(h)
	if err != nil {
		t.Fatal(err)
	}
	proc, err := traffic.NewBernoulli(load, 8)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo:            p,
		Spec:            spec,
		Routing:         core.Config{Threshold: 0.45, PBThreshold: 0.35, RemoteCandidates: 2},
		Flow:            VCT,
		PacketPhits:     8,
		BufLocal:        32,
		BufGlobal:       256,
		InjQueuePackets: 16,
		LatLocal:        4,
		LatGlobal:       16,
		Seed:            12345,
		Workload:        single(t, p, nil, proc),
		Warmup:          1500,
		Measure:         3000,
		MaxCycles:       1_000_000,
		Watchdog:        20000,
	}
}

// single compiles the classic workload — one pattern (uniform when nil)
// driven by one process on every node — the only form the engine accepts.
func single(t testing.TB, p *topology.P, pattern traffic.Pattern, proc traffic.Process) *traffic.Workload {
	t.Helper()
	if pattern == nil {
		pattern = traffic.NewUniform(p)
	}
	w, err := traffic.NewSingleWorkload(pattern, proc, p.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func run(t *testing.T, cfg Config) metrics.Result {
	t.Helper()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSmokeMinimalUniform(t *testing.T) {
	cfg := testConfig(t, 2, core.Minimal, 0.2)
	res := run(t, cfg)
	if res.Deadlock {
		t.Fatal("deadlock under light uniform load")
	}
	if res.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	if math.Abs(res.AcceptedLoad-0.2) > 0.03 {
		t.Fatalf("accepted %.3f, want about the offered 0.2", res.AcceptedLoad)
	}
	// Base latency: up to local+global+local plus serialization.
	if res.AvgTotalLatency < 10 || res.AvgTotalLatency > 200 {
		t.Fatalf("implausible latency %.1f", res.AvgTotalLatency)
	}
	if res.AvgGlobalHops > 1.001 {
		t.Fatalf("minimal routing took %f global hops", res.AvgGlobalHops)
	}
	if res.LocalMisrouteRate != 0 || res.GlobalMisrouteRate != 0 {
		t.Fatalf("minimal routing misrouted: %f/%f",
			res.LocalMisrouteRate, res.GlobalMisrouteRate)
	}
}

func TestAllMechanismsDeliverVCT(t *testing.T) {
	for _, spec := range []core.Spec{core.Minimal, core.Valiant, core.PB, core.PAR62, core.RLM, core.OLM} {
		res := run(t, testConfig(t, 2, spec, 0.15))
		if res.Deadlock {
			t.Errorf("%v: deadlock", spec)
		}
		if res.Delivered == 0 {
			t.Errorf("%v: nothing delivered", spec)
		}
		if math.Abs(res.AcceptedLoad-0.15) > 0.03 {
			t.Errorf("%v: accepted %.3f, want about 0.15", spec, res.AcceptedLoad)
		}
	}
}

func TestWormholeMechanismsDeliver(t *testing.T) {
	for _, spec := range []core.Spec{core.Minimal, core.Valiant, core.PB, core.PAR62, core.RLM} {
		cfg := testConfig(t, 2, spec, 0.1)
		cfg.Flow = WH
		cfg.PacketPhits = 40 // larger than the 32-phit local buffers
		proc, err := traffic.NewBernoulli(0.1, 40)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload = single(t, cfg.Topo, nil, proc)
		res := run(t, cfg)
		if res.Deadlock {
			t.Errorf("%v/WH: deadlock", spec)
		}
		if res.Delivered == 0 {
			t.Errorf("%v/WH: nothing delivered", spec)
		}
	}
}

func TestOLMRejectsWormhole(t *testing.T) {
	cfg := testConfig(t, 2, core.OLM, 0.1)
	cfg.Flow = WH
	if _, err := New(cfg); err == nil {
		t.Fatal("OLM accepted wormhole flow control")
	}
}

func TestVCTRejectsOversizedPackets(t *testing.T) {
	cfg := testConfig(t, 2, core.Minimal, 0.1)
	cfg.PacketPhits = 64
	cfg.BufLocal = 32
	if _, err := New(cfg); err == nil {
		t.Fatal("VCT accepted packets larger than the local buffers")
	}
}

func TestValidationErrors(t *testing.T) {
	good := testConfig(t, 2, core.Minimal, 0.1)

	cfg := good
	cfg.Topo = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil topology accepted")
	}
	cfg = good
	cfg.Workload = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil workload accepted")
	}
	cfg = good
	cfg.PacketPhits = -1
	if _, err := New(cfg); err == nil {
		t.Error("negative packet size accepted")
	}
	// Only VCT and WH consume credits; any other value would overflow them.
	for _, flow := range []FlowControl{-1, WH + 1} {
		cfg = good
		cfg.Flow = flow
		if _, err := New(cfg); err == nil {
			t.Errorf("flow control %v accepted", flow)
		}
	}
	// The engine fills no defaults: a zero size, latency or bound is an
	// error, not the paper's value.
	for name, zero := range map[string]func(c *Config){
		"BufLocal":        func(c *Config) { c.BufLocal = 0 },
		"BufGlobal":       func(c *Config) { c.BufGlobal = 0 },
		"InjQueuePackets": func(c *Config) { c.InjQueuePackets = 0 },
		"LatLocal":        func(c *Config) { c.LatLocal = 0 },
		"LatGlobal":       func(c *Config) { c.LatGlobal = -10 },
		"Watchdog":        func(c *Config) { c.Watchdog = 0 },
		"MaxCycles":       func(c *Config) { c.MaxCycles = 0 },
	} {
		cfg = good
		zero(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("non-positive %s accepted", name)
		}
	}
}

func TestRunTwiceFails(t *testing.T) {
	sim, err := New(testConfig(t, 2, core.Minimal, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

// TestPacketConservation runs with warmup 0 so the sheets see every event:
// every generated packet is injected+lost, and the live counter matches
// injected minus delivered.
func TestPacketConservation(t *testing.T) {
	cfg := testConfig(t, 2, core.RLM, 0.35)
	cfg.Warmup = 0
	cfg.Measure = 4000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sheet metrics.Sheet
	for i := range sim.sheets {
		sheet.Merge(&sim.sheets[i])
	}
	if sheet.Generated != sheet.Injected+sheet.InjectionLost {
		t.Fatalf("generated %d != injected %d + lost %d",
			sheet.Generated, sheet.Injected, sheet.InjectionLost)
	}
	_, live, _ := sim.totals()
	if sheet.Injected-sheet.Delivered != live {
		t.Fatalf("injected %d - delivered %d != live %d",
			sheet.Injected, sheet.Delivered, live)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestSerialParallelIdentical verifies the determinism contract: any worker
// count produces bit-identical results.
func TestSerialParallelIdentical(t *testing.T) {
	results := make([]metrics.Result, 0, 3)
	for _, workers := range []int{1, 3, 8} {
		cfg := testConfig(t, 2, core.OLM, 0.3)
		cfg.Workers = workers
		results = append(results, run(t, cfg))
	}
	for i := 1; i < len(results); i++ {
		a, b := results[0], results[i]
		if a.Delivered != b.Delivered ||
			a.AcceptedLoad != b.AcceptedLoad ||
			a.AvgTotalLatency != b.AvgTotalLatency ||
			a.AvgLocalHops != b.AvgLocalHops {
			t.Fatalf("worker count changed results:\n  1: %+v\n  n: %+v", a, b)
		}
	}
}

// TestSameSeedSameResult verifies reproducibility across separate Sims.
func TestSameSeedSameResult(t *testing.T) {
	a := run(t, testConfig(t, 2, core.PAR62, 0.25))
	b := run(t, testConfig(t, 2, core.PAR62, 0.25))
	if a.Delivered != b.Delivered || a.AvgTotalLatency != b.AvgTotalLatency {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	cfg := testConfig(t, 2, core.PAR62, 0.25)
	cfg.Seed = 999
	c := run(t, cfg)
	if a.Delivered == c.Delivered && a.AvgTotalLatency == c.AvgTotalLatency {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

// TestBurstDrains checks the burst mode: all packets generated and drained,
// consumption time reported.
func TestBurstDrains(t *testing.T) {
	cfg := testConfig(t, 2, core.RLM, 0)
	burst, err := traffic.NewBurst(20, cfg.Topo.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, nil, burst)
	cfg.Warmup, cfg.Measure = 0, 0
	cfg.MaxCycles = 200000
	res := run(t, cfg)
	if res.Deadlock {
		t.Fatal("burst deadlocked")
	}
	want := int64(20 * cfg.Topo.Nodes)
	if res.Delivered != want {
		t.Fatalf("delivered %d packets, want %d", res.Delivered, want)
	}
	if res.ConsumptionCycles <= 0 {
		t.Fatalf("consumption cycles %d", res.ConsumptionCycles)
	}
}

// deadlockRing is an intentionally unsafe algorithm used to prove the
// watchdog fires: every packet circles the source group's ring on one VC,
// so wormhole packets larger than a buffer wedge into a credit cycle.
type deadlockRing struct {
	topo   *topology.P
	router int // the router this instance was last planned at
}

func (d *deadlockRing) Route(v core.View, st *core.PacketState, router, size int, r *rng.PCG) core.Decision {
	idx := d.topo.IndexInGroup(router)
	next := (idx + 1) % d.topo.RoutersPerGroup
	port := d.topo.LocalPort(idx, next)
	if !v.CanClaim(port, 0, size) {
		return core.Decision{Wait: true}
	}
	return core.Decision{Port: port, VC: 0, Kind: core.KindMin, NewValiant: -1, LocalFinal: -1}
}

// BuildPlan/RoutePlanned satisfy core.Algorithm: one instance serves one
// router, so remembering the router at build time is enough state.
func (d *deadlockRing) BuildPlan(v core.View, st *core.PacketState, router, size int, r *rng.PCG, p *core.Plan) {
	d.router = router
}

func (d *deadlockRing) RoutePlanned(v core.View, p *core.Plan, size int, r *rng.PCG) core.Decision {
	return d.Route(v, nil, d.router, size, r)
}

func TestWatchdogDetectsDeadlock(t *testing.T) {
	cfg := testConfig(t, 2, core.Minimal, 0.9)
	cfg.Flow = WH
	cfg.PacketPhits = 40
	cfg.BufLocal = 8 // packets span several routers
	proc, err := traffic.NewBernoulli(0.9, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, nil, proc)
	cfg.Warmup = 0
	cfg.Measure = 100000
	cfg.Watchdog = 2000
	// The verdict and its cycle must not depend on block stepping: the
	// watchdog fires on the same cycle as when every block is one cycle.
	var cycles [2]int64
	for i, oneCycle := range []bool{false, true} {
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if oneCycle {
			sim.blockMax = 1
		}
		// Swap in the unsafe algorithm behind the validator's back.
		for j := range sim.routers {
			sim.routers[j].alg = &deadlockRing{topo: cfg.Topo}
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deadlock {
			t.Fatal("the watchdog did not fire on a wedged ring")
		}
		cycles[i] = sim.Cycle()
	}
	if cycles[0] != cycles[1] || cycles[0] >= cfg.Measure {
		t.Fatalf("watchdog fired at cycle %d in blocks, %d in single cycles (run length %d)", cycles[0], cycles[1], cfg.Measure)
	}
}

// TestEjectionBandwidth verifies that one node consumes at most one phit
// per cycle: a 2-node burst aimed at one node needs at least
// packets*size cycles.
func TestEjectionBandwidth(t *testing.T) {
	cfg := testConfig(t, 2, core.Minimal, 0)
	burst, err := traffic.NewBurst(10, cfg.Topo.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, singleSink{}, burst)
	cfg.Warmup, cfg.Measure = 0, 0
	cfg.MaxCycles = 500000
	res := run(t, cfg)
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	// All nodes (72) send 10 packets of 8 phits to node 0, whose eject
	// port moves 1 phit/cycle: >= (72-1)*10*8 cycles (node 0's own
	// packets eject locally too).
	minCycles := int64((cfg.Topo.Nodes - 1) * 10 * 8)
	if res.ConsumptionCycles < minCycles {
		t.Fatalf("consumed in %d cycles, ejection should bound it to >= %d",
			res.ConsumptionCycles, minCycles)
	}
}

// singleSink sends everything to node 0.
type singleSink struct{}

func (singleSink) Dest(src int, _ *rng.PCG) int { return 0 }
func (singleSink) Name() string                 { return "sink0" }

// TestInjectionLossAccounting saturates a tiny injection queue and checks
// losses are counted for steady traffic.
func TestInjectionLossAccounting(t *testing.T) {
	cfg := testConfig(t, 2, core.Minimal, 2.0) // impossible offered load
	cfg.InjQueuePackets = 2
	cfg.Warmup = 0
	cfg.Measure = 2000
	proc, err := traffic.NewBernoulli(2.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, nil, proc)
	res := run(t, cfg)
	if res.InjectionLost == 0 {
		t.Fatal("no injection losses under 2.0 offered load")
	}
	if res.AcceptedLoad > 1.0 {
		t.Fatalf("accepted load %f exceeds the physical limit", res.AcceptedLoad)
	}
}

func BenchmarkCycleH2UniformRLM(b *testing.B) {
	cfg := testConfig(b, 2, core.RLM, 0.3)
	cfg.LatLocal, cfg.LatGlobal = 10, 100
	cfg.Seed, cfg.Warmup, cfg.Measure = 1, 0, 1
	sim, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.stepBlock(1)
	}
	b.ReportMetric(float64(cfg.Topo.Routers), "routers")
}
