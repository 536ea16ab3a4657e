package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
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
	out = append(out, s.cycle, int64(s.nextFault), int64(s.nextRouteFault),
		int64(s.hopLimit), s.end, s.ffJumped, b2i(s.faulted), b2i(s.view != s.faults))
	for i := range s.routers {
		r := &s.routers[i]
		out = append(out, int64(r.occupied), int64(r.claimPorts), int64(r.xferPorts),
			int64(r.deadPorts), b2i(r.parked), int64(r.pbCooldown),
			r.phaseRefreshAt, r.injectAt, r.lastDeliveryCycle, int64(r.parity),
			int64(r.routeRand.Uint32()))
		for k := range r.nodeRand {
			out = append(out, int64(r.nodeRand[k].Uint32()), r.nodePhase[k].due)
		}
		for p := range r.in {
			out = append(out, int64(r.claimVCs[p]))
			for _, buf := range r.inVCs(p) {
				out = append(out, int64(buf.used), int64(buf.count), b2i(buf.planned), b2i(buf.claimed))
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

// TestReinitShapeChange: a configuration of another shape of the same
// dragonfly makes Init re-lay the fabric in place; one of another
// dragonfly makes it drop the fabric and build the right one. Every run
// equals a fresh one.
func TestReinitShapeChange(t *testing.T) {
	s := new(Sim)
	for i, tc := range []struct {
		mk      func(*testing.T) Config
		rebuilt bool
	}{
		{func(t *testing.T) Config { return testConfig(t, 2, core.RLM, 0.3) }, true},
		{func(t *testing.T) Config { return testConfig(t, 2, core.PAR62, 0.3) }, false}, // 6/2 VCs
		{func(t *testing.T) Config { return testConfig(t, 3, core.OLM, 0.2) }, true},    // another h
		{func(t *testing.T) Config { // another buffer geometry
			cfg := testConfig(t, 3, core.OLM, 0.2)
			cfg.BufLocal = 64
			return cfg
		}, false},
		{func(t *testing.T) Config { return testConfig(t, 2, core.RLM, 0.3) }, true},
	} {
		before := s.shape
		var fabric *router
		if len(s.routers) > 0 {
			fabric = &s.routers[0]
		}
		if err := s.Init(tc.mk(t)); err != nil {
			t.Fatal(err)
		}
		if s.shape == before {
			t.Fatalf("step %d: shape did not change", i)
		}
		if rebuilt := fabric != &s.routers[0]; rebuilt != tc.rebuilt {
			t.Fatalf("step %d: fabric rebuilt %v, want %v", i, rebuilt, tc.rebuilt)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if want := run(t, tc.mk(t)); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: after a shape change the result differs from a fresh run:\n  got  %+v\n  want %+v", i, got, want)
		}
	}
}

// relayVariants each differ from relayBase in one layout field of the
// shape — the VC counts, flow control with packet size, the buffers, the
// injection queue, the latencies, the worker count, the jobs and phases —
// all on relayBase's dragonfly.
var relayVariants = []struct {
	name string
	cfg  func(t *testing.T) Config
}{
	{"6/2 VCs", func(t *testing.T) Config {
		cfg := relayBase(t)
		cfg.Spec = core.PAR62
		return cfg
	}},
	{"WH-40", func(t *testing.T) Config {
		cfg := relayBase(t)
		proc, err := traffic.NewBernoulli(0.3, 40)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Flow, cfg.PacketPhits, cfg.Workload = WH, 40, single(t, cfg.Topo, nil, proc)
		return cfg
	}},
	{"buffers 64/512", func(t *testing.T) Config {
		cfg := relayBase(t)
		cfg.BufLocal, cfg.BufGlobal = 64, 512
		return cfg
	}},
	{"injection queue 4", func(t *testing.T) Config {
		cfg := relayBase(t)
		cfg.InjQueuePackets = 4
		return cfg
	}},
	{"latencies 7/40", func(t *testing.T) Config {
		cfg := relayBase(t)
		cfg.LatLocal, cfg.LatGlobal = 7, 40
		return cfg
	}},
	{"2 workers", func(t *testing.T) Config {
		cfg := relayBase(t)
		cfg.Workers = 2
		return cfg
	}},
	{"2 jobs, 4 phases", func(t *testing.T) Config {
		cfg := relayBase(t)
		cfg.Workload = blockWorkload(t, cfg.Topo, "phased")
		cfg.WindowCycles = 200
		return cfg
	}},
}

// relayBase is the h=2 RLM VCT point at load 0.3 every relayVariant
// differs from in one layout field.
func relayBase(t *testing.T) Config {
	cfg := testConfig(t, 2, core.RLM, 0.3)
	cfg.Warmup, cfg.Measure = 300, 900
	return cfg
}

// TestRelayMatchesFresh is the re-lay half of the reuse contract: one Sim
// walks from relayBase to each relayVariant and back, so every layout
// field changes in both directions — growing and shrinking what it sizes
// — and at every step the re-laid fabric, still the Sim's first
// allocation, must be indistinguishable from a fresh New of the
// configuration: at cycle 0, at checkpoints while stepping, and in the
// Result. Going from 1 worker to 2 and back flips the arrival masks
// between plain and atomic updates, which -race watches.
func TestRelayMatchesFresh(t *testing.T) {
	recycled := new(Sim)
	var fabric *router
	steps := []int{-1}
	for i := range relayVariants {
		steps = append(steps, i, -1)
	}
	for step, vi := range steps {
		name, mk := "base", relayBase
		if vi >= 0 {
			name, mk = relayVariants[vi].name, relayVariants[vi].cfg
		}
		fresh, err := New(mk(t))
		if err != nil {
			t.Fatal(err)
		}
		if err := recycled.Init(mk(t)); err != nil {
			t.Fatal(err)
		}
		if step == 0 {
			fabric = &recycled.routers[0]
		} else if fabric != &recycled.routers[0] {
			t.Fatalf("step %d (%s): same dragonfly, but the fabric was rebuilt", step, name)
		}
		if fresh.shape != recycled.shape {
			t.Fatalf("step %d (%s): shapes differ", step, name)
		}
		sameAt(t, name+" at cycle 0", fresh, recycled)
		for _, checkpoint := range []int64{1, 60, 400} {
			for fresh.cycle < checkpoint {
				fresh.stepBlock(1)
				recycled.stepBlock(1)
			}
			sameAt(t, name+" mid-run", fresh, recycled)
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
			t.Fatalf("step %d (%s): re-laid result differs\n  fresh   : %+v\n  re-laid : %+v", step, name, a, b)
		}
		if a.Delivered == 0 {
			t.Fatalf("%s delivered nothing; the comparison proved nothing", name)
		}
	}
}

// madeChunks counts the ring chunks each arena of s has made, under any
// layout.
func madeChunks(s *Sim) [3]int {
	r := &s.rings
	return [3]int{countMade(r.entries.chunks), countMade(r.phits.chunks), countMade(r.credits.chunks)}
}

func countMade[T any](chunks []*T) (n int) {
	for _, c := range chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// TestRelayMakesNoRings: a re-lay zeroes every ring ref but keeps the
// chunks, and the next layout's rings are bumped out of them again. A Sim
// cycling through layouts of one dragonfly — wormhole 40-phit packets,
// 6/2 VCs, long links, back to the base — makes chunks on the first lap
// only: on the second, every re-lay finds enough chunks made and makes
// none, and every result repeats.
func TestRelayMakesNoRings(t *testing.T) {
	for _, workers := range []int{1, 2} {
		lap := []func(t *testing.T) Config{relayBase, relayVariants[1].cfg, relayVariants[0].cfg, relayVariants[4].cfg}
		s := new(Sim)
		var first []metrics.Result
		var made [3]int
		for l := range 2 {
			for i, mk := range lap {
				cfg := mk(t)
				cfg.Workers = workers
				if err := s.Init(cfg); err != nil {
					t.Fatal(err)
				}
				res, err := s.Run()
				if err != nil {
					t.Fatal(err)
				}
				if l == 0 {
					first = append(first, res)
					continue
				}
				if !reflect.DeepEqual(res, first[i]) {
					t.Errorf("workers %d: layout %d of the second lap ran differently from the first", workers, i)
				}
				if again := madeChunks(s); again != made {
					t.Errorf("workers %d: layout %d of the second lap made ring chunks: %v before, %v after", workers, i, made, again)
				}
			}
			made = madeChunks(s)
			if min(made[0], made[1], made[2]) == 0 {
				t.Fatalf("workers %d: the first lap made no rings (%v)", workers, made)
			}
		}
	}
}

// TestRunResultsDoNotAliasSim: a Result's timeline and phase digests are
// its own, not views of the sheets the Sim keeps for its next run — the
// one worker sheet a serial run digests directly included: a Result kept
// from one run is untouched by the next run on the same Sim.
func TestRunResultsDoNotAliasSim(t *testing.T) {
	for _, workers := range []int{1, 2} {
		mk := func(spec core.Spec, window int64) Config {
			cfg := relayVariants[6].cfg(t)
			cfg.Spec, cfg.WindowCycles, cfg.Workers = spec, window, workers
			return cfg
		}
		s, err := New(mk(core.RLM, 200))
		if err != nil {
			t.Fatal(err)
		}
		kept, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if kept.Timeline == nil || len(kept.Timeline.Windows) == 0 || len(kept.PhaseDigests) != 4 {
			t.Fatalf("workers %d: the first run has no timeline or phase digests: %+v", workers, kept)
		}
		want := run(t, mk(core.RLM, 200))
		if err := s.Init(mk(core.Minimal, 150)); err != nil {
			t.Fatal(err)
		}
		next, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if &next.Timeline.Windows[0] == &kept.Timeline.Windows[0] || &next.PhaseDigests[0] == &kept.PhaseDigests[0] {
			t.Fatalf("workers %d: two runs' Results share timeline or phase digest memory", workers)
		}
		if !reflect.DeepEqual(kept, want) {
			t.Fatalf("workers %d: a Result kept from the first run changed during the second run on the same Sim", workers)
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

// TestAcquireOrder: Acquire re-initialises prev when it has cfg's
// dragonfly — re-laid when the rest of the shape differs —, else the idle
// fabric of that dragonfly, with prev going idle, else a new fabric; a
// failed Acquire sends prev idle too.
func TestAcquireOrder(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // idle fabrics stay alive
	runtime.GC()
	a := testConfig(t, 2, core.OLM, 0.1)
	a.Warmup, a.Measure = 50, 100
	relaid := a
	relaid.LatLocal = 5 // another shape of the same dragonfly
	b := testConfig(t, 3, core.OLM, 0.1)
	b.Warmup, b.Measure = 50, 100 // another dragonfly
	run := func(s *Sim) {
		t.Helper()
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
	acquire := func(cfg Config, prev *Sim) *Sim {
		t.Helper()
		s, err := Acquire(cfg, prev)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	sa := acquire(a, nil)
	run(sa)
	if got := acquire(a, sa); got != sa {
		t.Fatal("prev of the same shape was not re-initialised")
	}
	run(sa)
	if got := acquire(relaid, sa); got != sa {
		t.Fatal("prev of the same dragonfly was not re-laid")
	}
	run(sa)
	sb := acquire(b, sa) // sa goes idle
	if sb == sa {
		t.Fatal("prev of another dragonfly was re-initialised")
	}
	run(sb)
	if got := acquire(a, sb); got != sa {
		t.Fatal("the idle fabric of the dragonfly was not taken")
	}
	run(sa)
	if got := acquire(b, nil); got != sb {
		t.Fatal("prev of another dragonfly did not go idle")
	}
	bad := a
	bad.Flow = WH // OLM requires VCT
	if _, err := Acquire(bad, sa); err == nil {
		t.Fatal("OLM over wormhole accepted")
	}
	if got := acquire(relaid, nil); got != sa {
		t.Fatal("prev did not go idle when Acquire failed")
	}
	if got := acquire(a, nil); got == sa {
		t.Fatal("a taken fabric stayed in the idle set")
	}
}
