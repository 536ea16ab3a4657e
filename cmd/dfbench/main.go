// Command dfbench runs a fixed matrix of simulation scenarios and reports
// engine throughput — simulated cycles per wall-clock second and crossbar
// phits per second — plus stepping-phase allocation counts for each point,
// as JSON. The matrix is held constant across PRs (h ∈ {2,3}, VCT and WH,
// seven mechanisms — RLM and OLM joined in BENCH_2 — uniform and
// adversarial traffic, low and saturation load, serial and 4-worker
// execution) so successive BENCH_<n>.json files track the engine's
// performance trajectory over time.
//
// With -scale, a second matrix of large-network points is appended:
// h ∈ {8, 12, 16} (the paper's full size and the two beyond-paper scale
// presets) under OLM, uniform traffic at 5% load and the paper's link
// latencies, across workers ∈ {1, 2, 4, 8}, each point also reporting
// heap_bytes — the live heap of the built network.
//
// The matrix is built and driven by internal/exp; the orchestrator runs
// one point at a time by default (wall-clock timing stays clean), with
// -parallel for smoke runs where timing fidelity does not matter.
//
// With -baseline, the run is compared point-by-point against a previous
// report: single-point regressions beyond -maxregress are report-only
// warnings (benchmark noise), but a median regression beyond -maxregress
// across the matrix fails the run — the CI perf gate.
//
// Usage:
//
//	go run ./cmd/dfbench -o BENCH_1.json
//	go run ./cmd/dfbench -quick -reps 1 -o /dev/null -baseline BENCH_1.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"

	dragonfly "repro"
	"repro/internal/cliutil"
	"repro/internal/exp"
)

// Point is one benchmark measurement.
type Point struct {
	H         int     `json:"h"`
	Flow      string  `json:"flow"`
	Mechanism string  `json:"mechanism"`
	Pattern   string  `json:"pattern"`
	Load      float64 `json:"load"`
	Workers   int     `json:"workers"`

	Cycles       int64   `json:"cycles"`
	WallSeconds  float64 `json:"wall_seconds"`
	CyclesPerSec float64 `json:"sim_cycles_per_sec"`
	PhitsMoved   int64   `json:"phits_moved"`
	PhitsPerSec  float64 `json:"phits_per_sec"`

	// AllocBytes and Allocs are the heap traffic of the reported (fastest)
	// repetition's stepping phase, from runtime.ReadMemStats deltas —
	// construction (Prepare) excluded. They surface allocation regressions
	// that wall time alone can hide.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`

	// HeapBytes is the live heap after the run (runtime.GC + HeapAlloc)
	// with the simulator still reachable — the resident cost of the
	// network state. Only the -scale points report it; for the tiny fixed
	// matrix the number is all Go runtime, not router state.
	HeapBytes uint64 `json:"heap_bytes,omitempty"`

	AcceptedLoad float64 `json:"accepted_load"`
	Deadlock     bool    `json:"deadlock"`
}

// Report is the top-level JSON document.
type Report struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Warmup     int64   `json:"warmup_cycles"`
	Measure    int64   `json:"measure_cycles"`
	Points     []Point `json:"points"`
}

func main() {
	out := flag.String("o", "BENCH_1.json", "output JSON path (- for stdout)")
	warmup := flag.Int64("warmup", 500, "warmup cycles per point")
	measure := flag.Int64("measure", 1500, "measured cycles per point")
	reps := flag.Int("reps", 3, "repetitions per point; the fastest is reported")
	quick := flag.Bool("quick", false, "h=2 serial subset only (CI smoke)")
	par := flag.Int("parallel", 1, "concurrent points (>1 ruins timing; smoke runs only)")
	baseline := flag.String("baseline", "", "previous report to compare sim_cycles_per_sec against")
	maxRegress := flag.Float64("maxregress", 0.30, "median regression fraction that fails a -baseline comparison")
	verbose := flag.Bool("v", false, "print each point as it completes")
	scale := flag.Bool("scale", false, "append the large-network scale matrix (h in {8,12,16}, workers in {1,2,4,8})")
	flag.Parse()
	if *reps < 1 {
		*reps = 1
	}

	hs := []int{2, 3}
	workerSet := []int{1, 4}
	if *quick {
		hs = []int{2}
		workerSet = []int{1}
	}
	type patternPoint struct {
		tr   dragonfly.Traffic
		load float64
	}
	patterns := []patternPoint{
		{dragonfly.Traffic{Kind: dragonfly.UN}, 0.05},
		{dragonfly.Traffic{Kind: dragonfly.UN}, 1.0},
		{dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}, 0.05},
		{dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}, 1.0},
	}
	// RLM and OLM (the paper's contributions, and the most route-
	// evaluation-bound mechanisms) joined the matrix in BENCH_2; baseline
	// comparisons simply skip points absent from older reports.
	mechs := []dragonfly.Mechanism{
		dragonfly.Minimal, dragonfly.Valiant, dragonfly.PAR62,
		dragonfly.Piggybacking, dragonfly.RLM, dragonfly.OLM, dragonfly.OFAR,
	}

	// The fixed benchmark matrix, declaratively. Reduced link latencies
	// keep point runtimes manageable while preserving the engine's work
	// profile; the WH packet size (40 phits) fits the default 256-phit
	// global buffers. The Filter drops VCT-only mechanisms under WH.
	camp := exp.NewMatrix(dragonfly.Config{
		Warmup: *warmup, Measure: *measure, Seed: 1,
		LatLocal: 4, LatGlobal: 16,
	}).
		Axis(len(hs),
			func(i int) string { return fmt.Sprintf("h=%d", hs[i]) },
			func(c *dragonfly.Config, i int) { c.H = hs[i] }).
		Axis(2,
			func(i int) string { return []string{"VCT", "WH"}[i] },
			func(c *dragonfly.Config, i int) {
				if i == 1 {
					c.FlowControl = dragonfly.WH
					c.PacketPhits = 40
				}
			}).
		Mechanisms(mechs...).
		Axis(len(patterns),
			func(i int) string {
				return fmt.Sprintf("%s/%.2f", cliutil.TrafficName(patterns[i].tr, 0), patterns[i].load)
			},
			func(c *dragonfly.Config, i int) {
				c.Traffic = patterns[i].tr
				c.Load = patterns[i].load
			}).
		Axis(len(workerSet),
			func(i int) string { return fmt.Sprintf("w=%d", workerSet[i]) },
			func(c *dragonfly.Config, i int) { c.Workers = workerSet[i] }).
		Filter(func(c dragonfly.Config) bool {
			return !(c.Mechanism.RequiresVCT() && c.FlowControl == dragonfly.WH)
		}).
		Campaign("dfbench")

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Warmup:     *warmup,
		Measure:    *measure,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	pts, err := runTimed(ctx, camp, *par, *reps, false, *verbose)
	cliutil.FatalIf(err)
	rep.Points = pts

	if *scale {
		pts, err := runScale(ctx, *reps, *verbose)
		cliutil.FatalIf(err)
		rep.Points = append(rep.Points, pts...)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	cliutil.FatalIf(err)
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else {
		cliutil.FatalIf(os.WriteFile(*out, buf, 0o644))
		fmt.Printf("dfbench: wrote %d points to %s\n", len(rep.Points), *out)
	}

	// With -o -, stdout carries the JSON document; the comparison output
	// must not corrupt the stream.
	cmpOut := os.Stdout
	if *out == "-" {
		cmpOut = os.Stderr
	}
	if *baseline != "" && !compareBaseline(cmpOut, rep, *baseline, *maxRegress) {
		os.Exit(1)
	}
}

// Scale-matrix run lengths. Shorter than the fixed matrix because each
// cycle moves three to forty times more routers; long enough that the
// per-cycle work dwarfs the loop overhead being measured.
const (
	scaleWarmup  = 200
	scaleMeasure = 600
)

// runScale measures the large-network scale matrix: the paper's h = 8
// system plus the beyond-paper h = 12 and h = 16 presets, OLM under
// uniform traffic at 5% load with the paper's 10/100-cycle latencies,
// across worker counts. These points track how the engine behaves at
// sizes where memory layout and parallel stepping actually matter; they
// additionally report heap_bytes, the live heap of the built network.
func runScale(ctx context.Context, reps int, verbose bool) ([]Point, error) {
	hs := []int{dragonfly.PaperH, dragonfly.ScaleH12, dragonfly.ScaleH16}
	workerSet := []int{1, 2, 4, 8}

	base := dragonfly.ScaleVCT(hs[0])
	base.Warmup, base.Measure, base.Seed = scaleWarmup, scaleMeasure, 1
	base.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
	base.Load = 0.05
	camp := exp.NewMatrix(base).
		Axis(len(hs),
			func(i int) string { return fmt.Sprintf("h=%d", hs[i]) },
			func(c *dragonfly.Config, i int) { c.H = hs[i] }).
		Mechanisms(dragonfly.OLM).
		Axis(len(workerSet),
			func(i int) string { return fmt.Sprintf("w=%d", workerSet[i]) },
			func(c *dragonfly.Config, i int) { c.Workers = workerSet[i] }).
		Campaign("dfbench-scale")

	// Strictly one point at a time: a second h=16 network in flight would
	// double the peak heap and corrupt both timings.
	return runTimed(ctx, camp, 1, reps, true, verbose)
}

// runTimed drives camp through exp.Run with cliutil.BestOf as the point
// runner — the stepping loop timed on its own (Prepare excluded), fastest
// of reps — and returns one report row per point, in campaign order.
// liveHeap adds heap_bytes to every row.
func runTimed(ctx context.Context, camp exp.Campaign, par, reps int, liveHeap, verbose bool) ([]Point, error) {
	timed := make([]cliutil.Timed, len(camp.Points))
	opt := exp.Options{
		Workers: par,
		Run: func(ctx context.Context, index int, p exp.Point) (dragonfly.Result, error) {
			var err error
			timed[index], err = cliutil.BestOf(ctx, p.Config, reps, liveHeap)
			return timed[index].Result, err
		},
	}
	if verbose {
		opt.Progress = func(pr exp.Progress) {
			o := pr.Outcome
			if o.Err != nil {
				fmt.Fprintf(os.Stderr, "[%s %d/%d] %s: %v\n", camp.Name, pr.Done, pr.Total, o.Point.Series, o.Err)
				return
			}
			tm := timed[o.Index]
			fmt.Fprintf(os.Stderr, "[%s %d/%d] %s: %.0f cycles/s", camp.Name, pr.Done, pr.Total, o.Point.Series, tm.CyclesPerSec())
			if liveHeap {
				fmt.Fprintf(os.Stderr, ", %.0f MiB", float64(tm.HeapBytes)/(1<<20))
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	outs, err := exp.Run(ctx, camp, opt)
	if err != nil {
		return nil, err
	}
	if err := exp.PointErrors(outs); err != nil {
		return nil, err
	}
	pts := make([]Point, len(outs))
	for i, o := range outs {
		pts[i] = newPoint(o.Point.Config, timed[o.Index])
	}
	return pts, nil
}

// newPoint builds the report row of one timed point.
func newPoint(cfg dragonfly.Config, tm cliutil.Timed) Point {
	return Point{
		H:         cfg.H,
		Flow:      cfg.FlowControl.String(),
		Mechanism: tm.Result.Mechanism,
		Pattern:   tm.Result.Pattern,
		Load:      cfg.Load,
		Workers:   cfg.Workers,

		Cycles:       tm.Cycles,
		WallSeconds:  tm.WallSeconds,
		CyclesPerSec: tm.CyclesPerSec(),
		PhitsMoved:   tm.Result.PhitsMoved,
		PhitsPerSec:  float64(tm.Result.PhitsMoved) / tm.WallSeconds,
		AllocBytes:   tm.AllocBytes,
		Allocs:       tm.Allocs,
		HeapBytes:    tm.HeapBytes,

		AcceptedLoad: tm.Result.AcceptedLoad,
		Deadlock:     tm.Result.Deadlock,
	}
}

// pointKey identifies a matrix point across reports.
type pointKey struct {
	H         int
	Flow      string
	Mechanism string
	Pattern   string
	Load      float64
	Workers   int
}

func (p Point) key() pointKey {
	return pointKey{p.H, p.Flow, p.Mechanism, p.Pattern, p.Load, p.Workers}
}

// compareBaseline checks rep's sim_cycles_per_sec against an earlier
// report. Per-point regressions beyond maxRegress print report-only
// warnings (single points are noisy); the verdict is the median ratio
// over all matched points, which cancels point noise but not a real
// engine slowdown. Returns false — fail — when the median regresses by
// more than maxRegress, and also when no baseline point matches this
// matrix at all (a gate that compares nothing must not pass silently).
// Output uses GitHub Actions annotation syntax so regressions surface on
// the workflow summary.
func compareBaseline(w io.Writer, rep Report, path string, maxRegress float64) bool {
	buf, err := os.ReadFile(path)
	cliutil.FatalIf(err)
	var base Report
	cliutil.FatalIf(json.Unmarshal(buf, &base))
	old := make(map[pointKey]Point, len(base.Points))
	for _, p := range base.Points {
		old[p.key()] = p
	}

	var ratios, allocRatios []float64
	floor := 1 - maxRegress
	for _, p := range rep.Points {
		was, ok := old[p.key()]
		if !ok || was.CyclesPerSec <= 0 || p.CyclesPerSec <= 0 {
			continue
		}
		ratio := p.CyclesPerSec / was.CyclesPerSec
		ratios = append(ratios, ratio)
		if ratio < floor {
			fmt.Fprintf(w, "::warning title=dfbench point regression::%s %s %s load=%.2f w=%d: %.0f -> %.0f cycles/s (%.0f%%)\n",
				p.Flow, p.Mechanism, p.Pattern, p.Load, p.Workers,
				was.CyclesPerSec, p.CyclesPerSec, 100*ratio)
		}
		// Allocation comparison is report-only: stepping is expected to
		// run allocation-free, so any growth is worth a look, but GC
		// timing makes single points too noisy to gate on.
		if was.AllocBytes > 0 && p.AllocBytes > 0 {
			allocRatios = append(allocRatios, float64(p.AllocBytes)/float64(was.AllocBytes))
		}
	}
	if len(ratios) == 0 {
		fmt.Fprintf(w, "::error title=dfbench perf regression::no points of %s match this matrix; regenerate the baseline\n", path)
		return false
	}
	sort.Float64s(ratios)
	median := medianOf(ratios)
	fmt.Fprintf(w, "dfbench: %d points vs %s: median %.0f%%, min %.0f%%, max %.0f%% of baseline sim_cycles_per_sec\n",
		len(ratios), path, 100*median, 100*ratios[0], 100*ratios[len(ratios)-1])
	if len(allocRatios) > 0 {
		sort.Float64s(allocRatios)
		fmt.Fprintf(w, "dfbench: stepping allocations vs %s: median %.0f%%, max %.0f%% of baseline alloc_bytes\n",
			path, 100*medianOf(allocRatios), 100*allocRatios[len(allocRatios)-1])
	}
	if median < floor {
		fmt.Fprintf(w, "::error title=dfbench perf regression::median sim_cycles_per_sec is %.0f%% of %s (floor %.0f%%)\n",
			100*median, path, 100*floor)
		return false
	}
	return true
}

// medianOf returns the median of an already-sorted slice.
func medianOf(xs []float64) float64 {
	m := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		m = (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	return m
}
