package dragonfly_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"

	dragonfly "repro"
)

// twoProcs makes Workers: 2 mean two engine workers even on a one-CPU
// box: the engine clamps Config.Workers to GOMAXPROCS.
func twoProcs(t testing.TB) {
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
}

// runnerPoint is one configuration of the differential matrix plus the
// part of its network shape the test can see from outside: two points
// with equal keys run on one allocation.
type runnerPoint struct {
	name string
	cfg  dragonfly.Config
	key  [6]int // h, workers, local VCs, packet phits, jobs, tracked phases
}

// runnerMatrix is 8 mechanisms x VCT/WH x steady/burst/phased x
// fault-free/static/dynamic/stale x Workers 1/2 x h=2..3, minus the
// mechanisms wormhole cannot carry: short runs, fixed seeds.
func runnerMatrix() []runnerPoint {
	mechs := []dragonfly.Mechanism{
		dragonfly.Minimal, dragonfly.Valiant, dragonfly.Piggybacking, dragonfly.PAR62,
		dragonfly.RLM, dragonfly.OLM, dragonfly.RLMSignOnly, dragonfly.OFAR,
	}
	var pts []runnerPoint
	for _, h := range []int{2, 3} {
		for _, m := range mechs {
			for _, flow := range []dragonfly.FlowControl{dragonfly.VCT, dragonfly.WH} {
				if flow == dragonfly.WH && m.RequiresVCT() {
					continue
				}
				for _, kind := range []string{"steady", "burst", "phased"} {
					for _, fault := range []string{"none", "static", "dynamic", "stale"} {
						for _, workers := range []int{1, 2} {
							c := dragonfly.PaperVCT(h)
							if flow == dragonfly.WH {
								c = dragonfly.PaperWH(h)
								c.PacketPhits = 16
							}
							c.Mechanism = m
							c.LatLocal, c.LatGlobal = 3, 9
							c.Warmup, c.Measure = 150, 450
							c.Workers = workers
							c.Seed = uint64(len(pts) + 1)
							phases := 0
							switch kind {
							case "steady":
								c.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
								c.Load = 0.35
							case "burst":
								c.BurstPackets = 6
							case "phased":
								c.Phases = []dragonfly.PhaseSpec{
									{Traffic: dragonfly.Traffic{Kind: dragonfly.UN}, Load: 0.3, Duration: 250},
									{Traffic: dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}, Load: 0.3},
								}
								c.WindowCycles = 100
								phases = 2
							}
							// Link 0:0 and router 1 are in group 0; neither can
							// partition an h>=2 dragonfly.
							switch fault {
							case "static":
								c.Faults = &dragonfly.FaultSpec{Links: []dragonfly.LinkID{{Router: 0, Port: 0}, {Router: 5, Port: 2*h - 1}}}
							case "dynamic", "stale":
								c.Faults = &dragonfly.FaultSpec{
									Events: []dragonfly.FaultEvent{
										{At: 120, Link: dragonfly.LinkID{Router: 0, Port: 0}},
										{At: 400, Repair: true, Link: dragonfly.LinkID{Router: 0, Port: 0}},
									},
									Routers: []dragonfly.RouterFault{{Router: 1, At: 200, Until: 350}},
								}
								if fault == "stale" {
									c.StaleCycles = 60
								}
							}
							lvc, _ := m.VCs()
							pts = append(pts, runnerPoint{
								name: m.String() + "/" + flow.String() + "/" + kind + "/" + fault,
								cfg:  c,
								key:  [6]int{h, workers, lvc, c.PacketPhits, 1, phases},
							})
						}
					}
				}
			}
		}
	}
	return pts
}

// TestRunnerDifferential drives one Runner through a shuffled sample of the
// matrix, arranged so that shape hits, shape misses (a re-lay of the
// network, or another dragonfly) and mechanism-only changes on one shape
// all occur, and demands every Result be DeepEqual
// to a fresh dragonfly.Run of the same configuration.
func TestRunnerDifferential(t *testing.T) {
	twoProcs(t)
	all := runnerMatrix()
	rnd := rand.New(rand.NewSource(7))
	rnd.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	n := 120
	if testing.Short() {
		n = 40
	}
	pts := all[:n]
	// Cluster the sample by (phit size, workers, h), keeping the shuffle
	// inside each cluster: runs of one shape with the mechanism, flow
	// control, traffic and faults changing, broken by VC-count (PAR-6/2)
	// and phase-count changes and by the cluster boundaries.
	sort.SliceStable(pts, func(i, j int) bool {
		a, b := pts[i].key, pts[j].key
		return a[3] < b[3] || a[3] == b[3] && (a[1] < b[1] || a[1] == b[1] && a[0] < b[0])
	})

	var lane dragonfly.Runner
	var hits, misses, specOnly int
	seen := map[string]bool{}
	for i, p := range pts {
		if i > 0 {
			switch prev := pts[i-1]; {
			case prev.key != p.key:
				misses++
			case prev.cfg.Mechanism != p.cfg.Mechanism:
				specOnly++
				hits++
			default:
				hits++
			}
		}
		for _, tag := range []string{p.cfg.Mechanism.String(), p.cfg.FlowControl.String()} {
			seen[tag] = true
		}
		got, err := lane.RunContext(context.Background(), p.cfg)
		if err != nil {
			t.Fatalf("point %d (%s): %v", i, p.name, err)
		}
		want, err := dragonfly.Run(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("point %d (%s) on the shared Runner differs from a fresh Run:\n  got  %+v\n  want %+v", i, p.name, got, want)
		}
		if got.Generated == 0 {
			t.Fatalf("point %d (%s) generated nothing", i, p.name)
		}
	}
	if hits == 0 || misses == 0 || specOnly == 0 {
		t.Fatalf("sequence has %d shape hits, %d misses, %d mechanism-only changes; want all three", hits, misses, specOnly)
	}
	if !testing.Short() && len(seen) != 8+2 {
		t.Fatalf("sample covers %d of 8 mechanisms + 2 flow controls", len(seen))
	}
	t.Logf("%d points: %d shape hits (%d with only the mechanism changed), %d misses", len(pts), hits, specOnly, misses)
}

// countdownCtx reports cancellation from its n-th Err call on — the engine
// polls Err once every 1024 cycles, so the run is canceled mid-flight at a
// known cycle — or, with boom set, panics there instead.
type countdownCtx struct {
	context.Context
	n    int
	boom bool
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n > 0 {
		return nil
	}
	if c.boom {
		panic("countdownCtx: boom")
	}
	return context.Canceled
}

// TestRunnerAbnormalExits: after a rejected configuration, a run canceled
// mid-flight and a panic unwinding through the run, the next point on the
// lane equals a fresh run — at Workers 1 and 2.
func TestRunnerAbnormalExits(t *testing.T) {
	twoProcs(t)
	for _, workers := range []int{1, 2} {
		good := fast(dragonfly.OLM)
		good.Load, good.Workers, good.Measure = 0.5, workers, 3000
		want, err := dragonfly.Run(good)
		if err != nil {
			t.Fatal(err)
		}
		var lane dragonfly.Runner
		check := func(after string) {
			t.Helper()
			got, err := lane.RunContext(context.Background(), good)
			if err != nil {
				t.Fatalf("workers %d, after %s: %v", workers, after, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers %d: the point after %s differs from a fresh run", workers, after)
			}
		}
		check("nothing")

		bad := good
		bad.Load = 1.5
		if _, err := lane.RunContext(context.Background(), bad); err == nil {
			t.Fatal("load 1.5 accepted")
		}
		check("a validation error")

		bad = good
		bad.Mechanism, bad.FlowControl = dragonfly.OLM, dragonfly.WH
		if _, err := lane.RunContext(context.Background(), bad); err == nil {
			t.Fatal("OLM over wormhole accepted")
		}
		check("an engine build error")

		// Canceled at cycle 2048 of 3500, network full of packets.
		_, err = lane.RunContext(&countdownCtx{Context: context.Background(), n: 3}, good)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v", err)
		}
		check("a cancellation at cycle 2048")

		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the panic did not propagate")
				}
			}()
			lane.RunContext(&countdownCtx{Context: context.Background(), n: 2, boom: true}, good) //nolint:errcheck // panics
		}()
		check("a recovered panic at cycle 1024")

		lane.Release()
		check("Release")
	}
}

// TestRunnerResultsDoNotAlias: a Result kept from one point — timeline
// windows and phase digests included — is untouched by later points on
// the same Runner.
func TestRunnerResultsDoNotAlias(t *testing.T) {
	a := phasedConfig(dragonfly.RLM)
	var lane dragonfly.Runner
	kept, err := lane.RunContext(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if kept.Timeline == nil || len(kept.Timeline.Windows) == 0 || len(kept.PhaseDigests) != 2 {
		t.Fatalf("point A has no timeline or phase digests: %+v", kept)
	}
	snapshot := kept
	tl := *kept.Timeline
	tl.Windows = append([]dragonfly.Window(nil), kept.Timeline.Windows...)
	snapshot.Timeline = &tl
	snapshot.PhaseDigests = append([]dragonfly.PhaseDigest(nil), kept.PhaseDigests...)

	b := phasedConfig(dragonfly.OLM) // same shape, everything else moved
	b.Phases[0].Load, b.Phases[1].Load, b.Seed, b.WindowCycles = 0.6, 0.6, 99, 150
	c := phasedConfig(dragonfly.Piggybacking)
	c.Phases[0].Traffic = dragonfly.Traffic{Kind: dragonfly.ADVL, Offset: 1}
	for _, cfg := range []dragonfly.Config{b, c} {
		if _, err := lane.RunContext(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(kept, snapshot) {
		t.Fatal("a Result kept from point A changed while the Runner ran B and C")
	}
}

// reuseCeilings bound, in bytes, what the second of two same-shape points
// on one Runner may allocate: with the mechanism unchanged (a compiled
// workload and the Result: measured 10 KB at h=2, 15 KB at h=3) and with
// it changed (plus routing tables and per-worker algorithms: 12 KB and
// 20 KB; 33 KB and 143 KB when every router had its own). Each ceiling is
// at least twice the measured figure, so only a lost reuse path trips it:
// a fresh run of the same networks allocates 175 KB (h=2) and 735 KB
// (h=3).
var reuseCeilings = map[int]struct{ sameMech, otherMech uint64 }{
	2: {24 << 10, 64 << 10},
	3: {112 << 10, 256 << 10},
}

// TestRunnerReuseAllocationCeiling pins the gain: the second same-shape
// point must allocate under the committed ceiling, at h=2 and h=3, with
// the mechanism unchanged and changed.
func TestRunnerReuseAllocationCeiling(t *testing.T) {
	for _, h := range []int{2, 3} {
		first, sameMech := reusePair(h)
		otherMech := first
		otherMech.Seed, otherMech.Mechanism = 3, dragonfly.OLM

		runtime.GC() // no idle fabric: the first run builds its own
		fresh := allocatedBy(t, func() {
			if _, err := dragonfly.Run(first); err != nil {
				t.Fatal(err)
			}
		})
		for _, tc := range []struct {
			second  dragonfly.Config
			ceiling uint64
		}{{sameMech, reuseCeilings[h].sameMech}, {otherMech, reuseCeilings[h].otherMech}} {
			var lane dragonfly.Runner
			if _, err := lane.RunContext(context.Background(), first); err != nil {
				t.Fatal(err)
			}
			reused := allocatedBy(t, func() {
				if _, err := lane.RunContext(context.Background(), tc.second); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("h=%d %s->%s: fresh %d B, second same-shape point %d B", h, first.Mechanism, tc.second.Mechanism, fresh, reused)
			if reused > tc.ceiling {
				t.Errorf("h=%d %s->%s: the second same-shape point allocated %d B, ceiling %d B (a fresh run: %d B)",
					h, first.Mechanism, tc.second.Mechanism, reused, tc.ceiling, fresh)
			}
		}
	}
}

// relayLap is the h=3 cycle of the paper's figures on one network: OLM
// over VCT with 8-phit packets, PAR-6/2 (6/2 VCs), RLM over wormhole with
// 40-phit packets, and OLM again — every step another shape of one
// dragonfly.
func relayLap() []dragonfly.Config {
	olm, _ := reusePair(3)
	olm.Mechanism = dragonfly.OLM
	par := olm
	par.Mechanism, par.Seed = dragonfly.PAR62, 2
	wh := olm
	wh.Mechanism, wh.FlowControl, wh.PacketPhits, wh.Seed = dragonfly.RLM, dragonfly.WH, 40, 3
	return []dragonfly.Config{olm, par, wh, olm}
}

// relayCeiling bounds, in bytes, what a point of relayLap's second lap may
// allocate on a Runner: re-laid, its network makes no array and no ring
// chunk, only the per-point routing tables and algorithms, workload and
// Result: measured 1.4 KB for a repeated configuration and at most 5.6 KB
// for a changed one, on amd64. A fresh run of one of these points
// allocates 753 KB. The ceiling is about twice the measured figure, so
// only a lost re-lay path trips it.
const relayCeiling = 12 << 10

// TestRunnerRelayAllocationCeiling: a Runner cycling through relayLap
// re-lays its one network for every point, so once the first lap has
// grown it to the largest of the shapes, no point of the second lap
// allocates more than relayCeiling — a small fraction of a fresh build.
func TestRunnerRelayAllocationCeiling(t *testing.T) {
	lap := relayLap()
	runtime.GC() // no idle fabric: the first point builds its own
	fresh := allocatedBy(t, func() {
		if _, err := dragonfly.Run(lap[0]); err != nil {
			t.Fatal(err)
		}
	})
	var lane dragonfly.Runner
	for _, c := range lap {
		if _, err := lane.RunContext(context.Background(), c); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range lap {
		got := allocatedBy(t, func() {
			if _, err := lane.RunContext(context.Background(), c); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("point %d (%s %s): %d B on the re-laid network, %d B a fresh run", i, c.Mechanism, c.FlowControl, got, fresh)
		if got > relayCeiling {
			t.Errorf("point %d (%s %s) of the second lap allocated %d B, ceiling %d B (a fresh run: %d B)",
				i, c.Mechanism, c.FlowControl, got, relayCeiling, fresh)
		}
	}
}

// reusePair returns two configurations of one shape at size h that
// differ in seed and load: the points of reuseCeilings' sameMech figure.
func reusePair(h int) (first, second dragonfly.Config) {
	first = dragonfly.PaperVCT(h)
	first.Mechanism = dragonfly.RLM
	first.LatLocal, first.LatGlobal = 4, 16
	first.Load, first.Warmup, first.Measure, first.Seed = 0.1, 100, 200, 1
	second = first
	second.Seed, second.Load = 2, 0.08
	return first, second
}

// collectorOff stops the collector for the rest of the test, so an idle
// fabric stays alive until the test's own runtime.GC.
func collectorOff(t *testing.T) {
	prev := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(prev) })
}

// TestRunnerIdleOneShotReuse: a one-shot Run hands its network to the
// idle set, so with the collector off a second one-shot Run of the same
// shape allocates no more than a second point on a Runner.
func TestRunnerIdleOneShotReuse(t *testing.T) {
	collectorOff(t)
	for _, h := range []int{2, 3} {
		first, second := reusePair(h)
		if _, err := dragonfly.Run(first); err != nil {
			t.Fatal(err)
		}
		reused := allocatedBy(t, func() {
			if _, err := dragonfly.Run(second); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("h=%d: second one-shot run %d B", h, reused)
		if reused > reuseCeilings[h].sameMech {
			t.Errorf("h=%d: the second one-shot run of one shape allocated %d B, ceiling %d B",
				h, reused, reuseCeilings[h].sameMech)
		}
	}
}

// TestRunnerIdleFabricsDieAtGC: the idle set holds its networks weakly,
// so after a collection none survives and the next Prepare of the shape
// allocates what a fresh build does. Holding them strongly would keep one
// network per shape resident for the life of the process.
func TestRunnerIdleFabricsDieAtGC(t *testing.T) {
	collectorOff(t)
	cfg, _ := reusePair(3)
	prepare := func() *dragonfly.Sim {
		s, err := dragonfly.Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	runtime.GC()
	fresh := allocatedBy(t, func() { prepare() }) // never run, so never idle
	if _, err := dragonfly.Run(cfg); err != nil {
		t.Fatal(err)
	}
	var s *dragonfly.Sim
	reused := allocatedBy(t, func() { s = prepare() })
	if _, err := s.Run(); err != nil { // idle again
		t.Fatal(err)
	}
	s = nil
	runtime.GC()
	again := allocatedBy(t, func() { prepare() })
	t.Logf("Prepare: fresh %d B, on an idle network %d B, after a GC %d B", fresh, reused, again)
	if reused > fresh/4 {
		t.Errorf("Prepare on an idle network allocated %d B, a fresh build %d B", reused, fresh)
	}
	if again < fresh*9/10 {
		t.Errorf("Prepare after a GC allocated %d B, a fresh build %d B: an idle network outlived the collection", again, fresh)
	}
}

// TestRunnerConcurrentOneShots: one-shot runs on four goroutines, over two
// shapes, share the idle set and each still equals its serial run.
func TestRunnerConcurrentOneShots(t *testing.T) {
	a, b := reusePair(2)
	c := a
	c.H = 3
	d := c
	d.Mechanism, d.Seed = dragonfly.OLM, 5
	cfgs := []dragonfly.Config{a, b, c, d}
	want := make([]dragonfly.Result, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if want[i], err = dragonfly.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 3 * len(cfgs) {
				i := (g + k) % len(cfgs)
				got, err := dragonfly.Run(cfgs[i])
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("goroutine %d: config %d differs from its serial run", g, i)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunnerFinishedSimKeepsItsAnswers: a Sim whose run completed gave
// its network up; once another Prepare re-initialises that network, the
// old Sim still reports its own run length and still refuses a second
// Run — it must not run the other point's network.
func TestRunnerFinishedSimKeepsItsAnswers(t *testing.T) {
	collectorOff(t)
	first, second := reusePair(2)
	second.Measure = 700
	s, err := dragonfly.Prepare(first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	cycles := s.Cycles()
	_, again := s.Run()
	if cycles != 300 || again == nil {
		t.Fatalf("finished Sim: %d cycles, second Run error %v", cycles, again)
	}
	var next *dragonfly.Sim
	reused := allocatedBy(t, func() {
		if next, err = dragonfly.Prepare(second); err != nil {
			t.Fatal(err)
		}
	})
	if reused > reuseCeilings[2].sameMech {
		t.Fatalf("the next Prepare allocated %d B: it did not take the finished Sim's network", reused)
	}
	check := func(when string) {
		t.Helper()
		if _, err := s.Run(); err == nil || err.Error() != again.Error() {
			t.Fatalf("%s: second Run of the finished Sim returned %v, want %v", when, err, again)
		}
		if got := s.Cycles(); got != cycles {
			t.Fatalf("%s: the finished Sim reports %d cycles, want %d", when, got, cycles)
		}
	}
	check("after the next Prepare")
	if _, err := next.Run(); err != nil {
		t.Fatal(err)
	}
	if next.Cycles() != 800 {
		t.Fatalf("the next point ran %d cycles, want 800", next.Cycles())
	}
	check("after the next run")
}

// allocatedBy returns the bytes f allocates, measured like
// testing.AllocsPerRun measures counts: one P, so nothing else allocates.
func allocatedBy(t *testing.T, f func()) uint64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}
