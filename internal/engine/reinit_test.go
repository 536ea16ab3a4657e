package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/traffic"
)

// fabricState flattens everything a run starts from that is not a sheet or
// a progress counter: per-router activity sets, credits, transfer slots and
// buffer bookkeeping. Two Sims with equal fabricState, totals and sheets
// are indistinguishable to the stepping code.
func fabricState(s *Sim) []int64 {
	var out []int64
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	out = append(out, s.cycle, int64(s.routeEpoch), int64(s.nextFault), int64(s.nextRouteFault),
		int64(s.hopLimit), s.end, s.ffJumped, b2i(s.faulted), b2i(s.view != s.faults))
	for i := range s.routers {
		r := &s.routers[i]
		out = append(out, int64(r.occupied), int64(r.claimPorts), int64(r.xferPorts),
			int64(r.deadPorts), b2i(r.parked), int64(r.pbCooldown),
			r.phaseRefreshAt, r.injectAt, r.pktSeq, r.lastDeliveryCycle, int64(r.parity),
			int64(r.routeRand.Uint32()))
		for k := range r.nodeRand {
			out = append(out, int64(r.nodeRand[k].Uint32()), r.nodePhase[k].due)
		}
		for p := range r.in {
			out = append(out, int64(r.claimVCs[p]))
			for _, buf := range r.inVCs(p) {
				out = append(out, int64(buf.used), int64(buf.count), buf.headSeq, b2i(buf.claimed))
			}
		}
		for p := range r.out {
			op := &r.out[p]
			out = append(out, int64(op.activeVCs), int64(op.rr))
			for _, c := range r.outCredits(p) {
				out = append(out, int64(c))
			}
		}
	}
	for g := range s.pb {
		if !s.pbEnabled {
			break
		}
		for k := range s.pb[g][0] {
			out = append(out, b2i(s.pb[g][0][k]), b2i(s.pb[g][1][k]))
		}
	}
	return out
}

// sheetDigests reads every worker's sheet through its exported digesters.
func sheetDigests(s *Sim) []any {
	var out []any
	p := s.topo
	for i := range s.sheets {
		sh := &s.sheets[i]
		out = append(out,
			metrics.Digest(sh, s.cycle+1, p.Nodes, p.Routers*p.LocalPorts, p.Routers*p.GlobalPorts),
			sh.Timeline(s.cycle, p.Nodes), sh.PhaseDigests(s.phaseInfos(), s.cycle))
	}
	return out
}

// sameAt fails unless the two Sims agree on totals, fabric state and sheets.
// fabricState draws from the RNG streams, on both Sims alike, so it also
// compares where every stream stands.
func sameAt(t *testing.T, when string, fresh, recycled *Sim) {
	t.Helper()
	fm, fl, fg := fresh.totals()
	rm, rl, rg := recycled.totals()
	if fm != rm || fl != rl || fg != rg {
		t.Fatalf("%s: totals fresh %d/%d/%d, recycled %d/%d/%d", when, fm, fl, fg, rm, rl, rg)
	}
	if !reflect.DeepEqual(fabricState(fresh), fabricState(recycled)) {
		t.Fatalf("%s: fabric state of the recycled Sim differs from a fresh one", when)
	}
	if !reflect.DeepEqual(sheetDigests(fresh), sheetDigests(recycled)) {
		t.Fatalf("%s: sheets of the recycled Sim differ from a fresh one", when)
	}
	if fresh.faulted && (fresh.faults.StateKey() != recycled.faults.StateKey() ||
		fresh.view.StateKey() != recycled.view.StateKey()) {
		t.Fatalf("%s: fault sets of the recycled Sim differ from a fresh one", when)
	}
}

// reinitCases are same-shape h=2 configurations (3/2 VCs, default buffers,
// serial) that dirty a Sim in different ways. Every call builds a new
// Config: workloads carry process state and serve one run.
var reinitCases = []struct {
	name string
	cfg  func(t *testing.T) Config
}{
	{"RLM/saturation/faulted+stale", func(t *testing.T) Config {
		cfg := routerFaultedDeterminismConfig(t, testConfig(t, 2, core.RLM, 0.9))
		cfg.StaleCycles = 300
		return cfg
	}},
	{"PB/mid", func(t *testing.T) Config { return testConfig(t, 2, core.PB, 0.5) }},
	{"Minimal/low", func(t *testing.T) Config { return testConfig(t, 2, core.Minimal, 0.05) }},
	{"OFAR/faulted", func(t *testing.T) Config {
		return faultedDeterminismConfig(t, testConfig(t, 2, core.OFAR, 0.3))
	}},
	{"OLM/burst", func(t *testing.T) Config {
		cfg := testConfig(t, 2, core.OLM, 0)
		burst, err := traffic.NewBurst(12, cfg.Topo.Nodes)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload = single(t, cfg.Topo, nil, burst)
		cfg.Warmup, cfg.Measure, cfg.MaxCycles = 0, 0, 200000
		return cfg
	}},
	{"WH/Valiant", func(t *testing.T) Config {
		cfg := testConfig(t, 2, core.Valiant, 0.3)
		cfg.Flow = WH
		cfg.WindowCycles = 400
		return cfg
	}},
}

// TestReinitMatchesFresh is the structural half of the reuse contract: one
// Sim is re-initialised through a sequence of same-shape configurations
// (each leaving different debris: mid-flight packets, reserved credits,
// fault views, Piggybacking tables, cached plans), and at every step it
// must be indistinguishable from a fresh New of the same configuration —
// at cycle 0, at several checkpoints while stepping, and in the Result.
func TestReinitMatchesFresh(t *testing.T) {
	recycled := new(Sim)
	var fabric *router
	order := []int{0, 1, 2, 3, 4, 5, 2, 0, 4, 1}
	for step, ci := range order {
		tc := reinitCases[ci]
		fresh, err := New(tc.cfg(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := recycled.Init(tc.cfg(t)); err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			fabric = &recycled.routers[0]
		} else if fabric != &recycled.routers[0] {
			t.Fatalf("step %d (%s): same shape, but the fabric was reallocated", step, tc.name)
		}
		sameAt(t, tc.name+" at cycle 0", fresh, recycled)
		for _, checkpoint := range []int64{1, 60, 400, 1200} {
			for fresh.cycle < checkpoint {
				fresh.stepBlock(1)
				recycled.stepBlock(1)
			}
			sameAt(t, tc.name+" mid-run", fresh, recycled)
		}
		a, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		b, err := recycled.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d (%s): recycled result differs\n  fresh   : %+v\n  recycled: %+v", step, tc.name, a, b)
		}
		if a.Delivered == 0 {
			t.Fatalf("%s delivered nothing; the comparison proved nothing", tc.name)
		}
	}
}

// TestReinitShapeChange: a configuration of another shape makes Init drop
// the fabric and build the right one; going back does it again.
func TestReinitShapeChange(t *testing.T) {
	s := new(Sim)
	for _, mk := range []func(*testing.T) Config{
		func(t *testing.T) Config { return testConfig(t, 2, core.RLM, 0.3) },
		func(t *testing.T) Config { return testConfig(t, 2, core.PAR62, 0.3) }, // 6/2 VCs
		func(t *testing.T) Config { return testConfig(t, 3, core.OLM, 0.2) },   // another h
		func(t *testing.T) Config { // another buffer geometry
			cfg := testConfig(t, 3, core.OLM, 0.2)
			cfg.BufLocal = 64
			return cfg
		},
		func(t *testing.T) Config { return testConfig(t, 2, core.RLM, 0.3) },
	} {
		before := s.shape
		if err := s.Init(mk(t)); err != nil {
			t.Fatal(err)
		}
		if s.shape == before {
			t.Fatal("shape did not change")
		}
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want := run(t, mk(t)); !reflect.DeepEqual(got, want) {
			t.Fatalf("after a shape change the result differs from a fresh run:\n  got  %+v\n  want %+v", got, want)
		}
	}
}

// TestReinitAfterInvariantPanic proves init restores a Sim from any mid-run
// state: a corrupted credit counter trips the engine's overflow panic
// mid-run, and the same Sim, re-initialised, equals a fresh one.
func TestReinitAfterInvariantPanic(t *testing.T) {
	mk := func() Config { return testConfig(t, 2, core.RLM, 0.6) }
	s, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	for s.cycle < 200 {
		s.stepBlock(1)
	}
	for i := range s.routers {
		r := &s.routers[i]
		for p := range r.out {
			c := r.outCredits(p)
			for v := range c {
				c[v] = r.out[p].capacity
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the corrupted run did not panic")
			}
		}()
		s.Run() //nolint:errcheck // panics
	}()
	if err := s.Init(mk()); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	sameAt(t, "after a recovered panic", fresh, s)
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run() // not run(): sameAt advanced both Sims' RNG streams
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a Sim re-initialised after a panic does not equal a fresh one")
	}
}

// TestInitErrorLeavesSimUnchanged: a rejected configuration touches
// nothing, and the Sim can go on to the next one.
func TestInitErrorLeavesSimUnchanged(t *testing.T) {
	s, err := New(testConfig(t, 2, core.RLM, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	before := s.shape
	bad := testConfig(t, 2, core.OLM, 0.3)
	bad.Flow = WH
	if err := s.Init(bad); err == nil {
		t.Fatal("OLM over wormhole accepted")
	}
	if s.shape != before || !s.ready {
		t.Fatal("a failed Init changed the Sim")
	}
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := run(t, testConfig(t, 2, core.RLM, 0.3)); !reflect.DeepEqual(got, want) {
		t.Fatal("result after a failed Init differs from a fresh run")
	}
}

// TestStopJoinsWorkers: when a parallel run returns — normally or on
// cancellation — its workers have exited, so the goroutine count is
// back at the baseline and the Sim can be re-initialised. Under -race this
// is also the check that a 2-worker Sim re-initialised on the spot shares
// nothing with the goroutines of its previous run.
func TestStopJoinsWorkers(t *testing.T) {
	mk := func() Config {
		cfg := testConfig(t, 2, core.OLM, 0.4)
		cfg.Workers = 2
		return cfg
	}
	// quiesced waits out the instant between a worker's deferred Done and
	// its goroutine leaving the scheduler's count.
	quiesced := func(base int) bool {
		for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
			time.Sleep(time.Millisecond)
		}
		return runtime.NumGoroutine() <= base
	}
	base := runtime.NumGoroutine()
	s, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	if s.shape.workers != 2 {
		t.Fatalf("effective workers %d, want 2", s.shape.workers)
	}
	want := run(t, mk())
	for i := 0; i < 3; i++ {
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !quiesced(base) {
			t.Fatalf("run %d: %d goroutines after Run returned, baseline %d", i, runtime.NumGoroutine(), base)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d on the re-initialised 2-worker Sim differs from a fresh run", i)
		}
		if err := s.Init(mk()); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v", err)
	}
	if !quiesced(base) {
		t.Fatalf("%d goroutines after a canceled run, baseline %d", runtime.NumGoroutine(), base)
	}
}

// cancelAt reports cancellation from the poll at the given cycle on (the
// engine polls Err once every 1024 cycles).
type cancelAt struct {
	context.Context
	polls int
}

func (c *cancelAt) Err() error {
	if c.polls--; c.polls >= 0 {
		return nil
	}
	return context.Canceled
}

// TestAbandonedRunReturnsPackets: a 2-worker run canceled at a poll holds
// packets in its buffers and on its wires, on no free list; Init must give
// every packet the Sim ever made back to the workers before the next run.
func TestAbandonedRunReturnsPackets(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := testConfig(t, 2, core.OLM, 0.7)
	cfg.Workers = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(&cancelAt{Context: context.Background(), polls: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v", err)
	}
	made, free := countPackets(s)
	if _, live, _ := s.totals(); live == 0 || int64(free) == made {
		t.Fatalf("%d live packets, %d of %d free at the cancellation; the test proves nothing", live, free, made)
	}
	if err := s.Init(cfg); err != nil {
		t.Fatal(err)
	}
	if made, free := countPackets(s); int64(free) != made {
		t.Fatalf("after Init: %d packets on the free lists, %d made; the abandoned run's packets were not returned", free, made)
	}
}

// TestReinitAfterCancel: a run canceled mid-flight leaves packets, reserved
// credits and live transfers everywhere; the same Sim, re-initialised,
// equals a fresh one — serially and with two workers.
func TestReinitAfterCancel(t *testing.T) {
	for _, workers := range []int{1, 2} {
		mk := func() Config {
			cfg := testConfig(t, 2, core.OLM, 0.7)
			cfg.Workers = workers
			return cfg
		}
		s, err := New(mk())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunContext(&cancelAt{Context: context.Background(), polls: 2}); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: canceled run returned %v", workers, err)
		}
		if s.cycle != 2048 {
			t.Fatalf("workers %d: canceled at cycle %d, want 2048", workers, s.cycle)
		}
		if _, live, _ := s.totals(); live == 0 {
			t.Fatal("nothing in flight at the cancellation; the test proves nothing")
		}
		if err := s.Init(mk()); err != nil {
			t.Fatal(err)
		}
		fresh, err := New(mk())
		if err != nil {
			t.Fatal(err)
		}
		sameAt(t, "after a cancellation", fresh, s)
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: a Sim re-initialised after a cancellation does not equal a fresh one", workers)
		}
	}
}
