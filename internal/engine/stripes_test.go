package engine

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// halfIdleConfig runs one steady UN job over the first half of the nodes
// and leaves the rest outside every job: the one load imbalance the
// workloads produce, and the case the fixed partition has to serve.
func halfIdleConfig(t *testing.T, h int, spec core.Spec, load float64) Config {
	t.Helper()
	cfg := testConfig(t, h, spec, load)
	p := cfg.Topo
	proc, err := traffic.NewBernoulli(load, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload, err = traffic.NewWorkload(p.Nodes, traffic.Job{
		First: 0, Last: p.Nodes/2 - 1,
		Phases: []traffic.Phase{{Pattern: traffic.NewUniform(p), Process: proc, Label: "UN"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// pin is the worker-owned blocks one router points at.
type pin struct {
	sheet *metrics.Sheet
	prog  *progress
	pkts  *packetList
}

func pins(s *Sim) []pin {
	out := make([]pin, len(s.routers))
	for i := range s.routers {
		r := &s.routers[i]
		out[i] = pin{r.sheet, r.prog, r.pkts}
	}
	return out
}

// TestStripesArePureFunctionOfShape pins the partition contract: the ranges
// are whole groups (a worker takes each through a block alone), and they
// and every router's worker-owned pointers follow from topology and
// effective worker count alone, are laid down by allocate, and are never
// touched again — not by Run, not by a same-shape Init. That immobility is
// what makes the unsynchronized sheets, progress counters and packet lists
// safe.
func TestStripesArePureFunctionOfShape(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8)) // let Workers: 7 through the clamp
	for _, h := range []int{1, 2, 3, 8} {
		for _, workers := range []int{1, 2, 3, 4, 7} {
			cfg := halfIdleConfig(t, h, core.OLM, 0.2)
			cfg.Warmup, cfg.Measure = 0, 40
			cfg.Workers = workers
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p := s.topo
			n := min(workers, p.Groups)
			if s.shape.workers != n || len(s.sheets) != n || len(s.progress) != n || len(s.pkts) != n {
				t.Fatalf("h=%d workers=%d: effective width %d, %d sheets, %d progress blocks, %d packet lists; want %d of each",
					h, workers, s.shape.workers, len(s.sheets), len(s.progress), len(s.pkts), n)
			}
			ranges := len(s.bounds) - 1
			if want := min(n*rangesPerWorker, p.Groups); ranges != want {
				t.Fatalf("h=%d workers=%d: %d ranges, want %d", h, workers, ranges, want)
			}
			if !slices.Equal(s.bounds, rangeBounds(p, ranges)) {
				t.Fatalf("h=%d workers=%d: bounds are not rangeBounds(topology, ranges)", h, workers)
			}
			if s.bounds[0] != 0 || s.bounds[ranges] != p.Routers {
				t.Fatalf("h=%d workers=%d: ranges span [%d,%d), want [0,%d)", h, workers, s.bounds[0], s.bounds[ranges], p.Routers)
			}
			perWorker := make([]int, n)
			widest := 0
			for i := 0; i < ranges; i++ {
				lo, hi := s.bounds[i], s.bounds[i+1]
				if hi <= lo {
					t.Fatalf("h=%d workers=%d: range %d is [%d,%d): empty or overlapping", h, workers, i, lo, hi)
				}
				if lo%p.RoutersPerGroup != 0 || hi%p.RoutersPerGroup != 0 {
					t.Fatalf("h=%d workers=%d: range %d is [%d,%d), not whole groups", h, workers, i, lo, hi)
				}
				w := i % n
				perWorker[w] += hi - lo
				widest = max(widest, hi-lo)
				for id := lo; id < hi; id++ {
					r := &s.routers[id]
					if r.sheet != &s.sheets[w] || r.prog != &s.progress[w] || r.pkts != &s.pkts[w] {
						t.Fatalf("h=%d workers=%d: router %d of range %d is not pinned to worker %d", h, workers, id, i, w)
					}
				}
			}
			// Range widths differ by at most one group and every worker is
			// dealt the same number of ranges, give or take one: the shares
			// differ by at most one range, or by one group per range dealt
			// when that is more.
			lo, hi := slices.Min(perWorker), slices.Max(perWorker)
			if slack := max(widest, rangesPerWorker*p.RoutersPerGroup); hi-lo > slack {
				t.Fatalf("h=%d workers=%d: per-worker router counts %v differ by more than %d", h, workers, perWorker, slack)
			}

			before, bounds := pins(s), slices.Clone(s.bounds)
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pins(s), before) || !slices.Equal(s.bounds, bounds) {
				t.Fatalf("h=%d workers=%d: Run moved the partition", h, workers)
			}
			// Same shape, everything else different: mechanism (same VC
			// counts), traffic, seed, length.
			next := testConfig(t, h, core.RLM, 0.1)
			next.Warmup, next.Measure, next.Workers, next.Seed = 0, 10, workers, 99
			if err := s.Init(next); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pins(s), before) || !slices.Equal(s.bounds, bounds) {
				t.Fatalf("h=%d workers=%d: a same-shape Init moved the partition", h, workers)
			}
		}
	}
}

// TestDeterminismHalfIdleJob is the worker-count contract on uneven load,
// run past the cycle where the former activity rebalancer first moved
// routers between workers: half the machine busy, half idle, serial
// against 3 workers, timeline included.
func TestDeterminismHalfIdleJob(t *testing.T) {
	for _, spec := range []core.Spec{core.OLM, core.PB} {
		t.Run(spec.String(), func(t *testing.T) {
			build := func(workers int) Config {
				cfg := halfIdleConfig(t, 3, spec, 0.3)
				cfg.Warmup, cfg.Measure, cfg.WindowCycles = 500, 2000, 250
				cfg.Workers = workers
				return cfg
			}
			a, b := run(t, build(1)), run(t, build(3))
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("worker count changed the result:\n  1 worker : %+v\n  3 workers: %+v", a, b)
			}
			if a.Delivered == 0 || len(a.Timeline.Windows) == 0 {
				t.Fatal("nothing delivered or no timeline; the comparison proved nothing")
			}
		})
	}
}

// TestPacketListConservation drains a burst and counts packets: every one
// the worker lists ever allocated must be back on some list, at any width,
// and a second run on the re-initialised Sim must find them there instead
// of allocating again.
func TestPacketListConservation(t *testing.T) {
	count := func(s *Sim) (made int64, free int) {
		for i := range s.pkts {
			made += s.pkts[i].made
			free += len(s.pkts[i].free)
		}
		return
	}
	for _, workers := range []int{1, 3} {
		cfg := testConfig(t, 2, core.OLM, 0)
		burst := func() *traffic.Workload {
			proc, err := traffic.NewBurst(12, cfg.Topo.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			return single(t, cfg.Topo, nil, proc)
		}
		cfg.Workload = burst()
		cfg.Warmup, cfg.Measure, cfg.MaxCycles = 0, 0, 200000
		cfg.Workers = workers
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlock || res.Delivered != int64(12*cfg.Topo.Nodes) {
			t.Fatalf("workers=%d: burst did not drain (%d delivered, deadlock %v)", workers, res.Delivered, res.Deadlock)
		}
		made, free := count(s)
		if made == 0 || made > res.Delivered || int64(free) != made {
			t.Fatalf("workers=%d: %d packets allocated for %d deliveries, %d on the free lists after the drain",
				workers, made, res.Delivered, free)
		}
		if workers > 1 {
			// Packets cross between workers' lists (popped where they are
			// injected, pushed where they are delivered), so a later run
			// may find its own list short; only the total is conserved.
			continue
		}
		cfg.Workload = burst()
		if err := s.Init(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if again, free := count(s); again != made || int64(free) != made {
			t.Fatalf("second run on the same Sim: %d packets allocated (first run: %d), %d free", again, made, free)
		}
	}
}

// TestPhasedBurstAllocationRepeats pins what the worker-owned packet lists
// fixed: the benchmark's sparse phased-burst point (six 20-packet bursts
// 10,000 cycles apart at h=3) used to draw its packets from a package-level
// sync.Pool that the collector empties on its own schedule, so one
// configuration allocated anywhere from 3.2 to 4.0 MB. Five fresh runs must
// now allocate the same amount.
func TestPhasedBurstAllocationRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := topology.New(3)
	if err != nil {
		t.Fatal(err)
	}
	build := func() Config {
		advg, err := traffic.NewAdversarialGlobal(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		var phases []traffic.Phase
		for i := 0; i < 6; i++ {
			proc, err := traffic.NewBurst(20, p.Nodes)
			if err != nil {
				t.Fatal(err)
			}
			ph := traffic.Phase{Pattern: traffic.NewUniform(p), Process: proc,
				Duration: 10000, Label: "burst", TotalPackets: int64(20 * p.Nodes)}
			if i%2 == 1 {
				ph.Pattern = advg
			}
			if i == 5 {
				ph.Duration = 0
			}
			phases = append(phases, ph)
		}
		w, err := traffic.NewWorkload(p.Nodes, traffic.Job{First: 0, Last: p.Nodes - 1, Phases: phases})
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(t, 3, core.OLM, 0)
		cfg.LatLocal, cfg.LatGlobal = 10, 100
		cfg.Seed, cfg.Workload, cfg.WindowCycles = 1, w, 500
		cfg.Warmup, cfg.Measure = 0, 0
		return cfg
	}
	var lo, hi uint64
	for i := 0; i < 5; i++ {
		cfg := build()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := run(t, cfg)
		runtime.ReadMemStats(&after)
		if res.Deadlock || res.Delivered != int64(6*20*p.Nodes) {
			t.Fatalf("run %d: %d delivered, deadlock %v", i, res.Delivered, res.Deadlock)
		}
		n := after.TotalAlloc - before.TotalAlloc
		if i == 0 {
			lo, hi = n, n
		}
		lo, hi = min(lo, n), max(hi, n)
	}
	if spread := float64(hi-lo) / float64(lo); spread >= 0.01 {
		t.Fatalf("TotalAlloc of one configuration ranged %d..%d bytes over five fresh runs (spread %.1f%%, want < 1%%)",
			lo, hi, 100*spread)
	}
}
