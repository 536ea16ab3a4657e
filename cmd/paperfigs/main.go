// Command paperfigs regenerates the data behind every figure of the
// paper's evaluation (Figures 4-11) plus Table I, writing one .dat file
// per figure panel and a markdown summary. All points of a figure run
// concurrently on internal/exp's worker pool; with -cache, an interrupted
// or repeated regeneration re-simulates only the points it is missing.
//
// The paper's experiments run at h=8 (16,512 nodes); the default here is a
// reduced h=4 network with the same structure so a full regeneration
// finishes in tens of minutes on a laptop. Pass -h 8 -burstvct 1000
// -burstwh 89 for paper scale.
//
// Usage:
//
//	paperfigs -out results [-h 4] [-figs 4,5,6,7,8,9,10,11] [-cache dir]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	dragonfly "repro"
	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/sweep"
)

type env struct {
	h        int
	rh       int // network size of the resilience degradation panels
	warmup   int64
	measure  int64
	seed     uint64
	burstVCT int
	burstWH  int
	outDir   string
	opt      sweep.Options
	summary  *strings.Builder
	// pointErrs collects per-point simulation failures across figures so
	// one bad point aborts neither its figure nor the remaining ones;
	// main reports them all and exits non-zero at the end.
	pointErrs []error
}

func main() {
	var (
		h        = flag.Int("h", 4, "dragonfly parameter (paper: 8)")
		out      = flag.String("out", "results", "output directory")
		figsFlag = flag.String("figs", "4,5,6,7,8,9,10,11,transient,resilience", `figures to regenerate ("scaling" — the engine-throughput panels up to h=16 — is opt-in: it needs ~2.5 GiB and tens of minutes, and it times this machine's engine, so it runs locally even with -remote)`)
		tmechs   = flag.String("tmechs", "Minimal,Valiant,PiggyBacking,OLM", "mechanisms of the transient traffic-change figure")
		tload    = flag.Float64("tload", 0.2, "offered load of the transient traffic-change figure")
		rmechs   = flag.String("rmechs", "Minimal,Valiant,PiggyBacking,OLM", "mechanisms of the resilience figure")
		rload    = flag.Float64("rload", 0.25, "offered load of the resilience figure")
		rh       = flag.Int("rh", 8, "dragonfly parameter of the degradation panels (paper scale: 8)")
		warmup   = flag.Int64("warmup", 2000, "warmup cycles")
		measure  = flag.Int64("measure", 4000, "measured cycles")
		seed     = flag.Uint64("seed", 1, "random seed")
		burstVCT = flag.Int("burstvct", 200, "VCT burst packets/node (paper: 1000)")
		burstWH  = flag.Int("burstwh", 20, "WH burst packets/node (paper: 89)")
		run      = cliutil.ExecFlags(flag.CommandLine) // -parallel -remote -cache -jsonl -q
	)
	flag.Parse()

	cliutil.FatalIf(os.MkdirAll(*out, 0o755))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	e := &env{
		h: *h, rh: *rh, warmup: *warmup, measure: *measure, seed: *seed,
		burstVCT: *burstVCT, burstWH: *burstWH, outDir: *out,
		summary: &strings.Builder{},
	}
	var err error
	e.opt, err = run.Options(ctx)
	cliutil.FatalIf(err)
	routers, nodes, groups, err := dragonfly.NetworkSize(*h)
	cliutil.FatalIf(err)
	fmt.Fprintf(e.summary, "# Paper figure regeneration\n\n")
	fmt.Fprintf(e.summary, "Network: h=%d (%d routers, %d nodes, %d groups); warmup %d, measure %d cycles; seed %d.\n\n",
		*h, routers, nodes, groups, *warmup, *measure, *seed)

	want := map[string]bool{}
	for _, f := range strings.Split(*figsFlag, ",") {
		want[strings.TrimSpace(f)] = true
	}
	start := time.Now()
	if want["4"] || want["5"] {
		cliutil.FatalIf(e.figs45())
	}
	if want["6"] {
		cliutil.FatalIf(e.fig6())
	}
	if want["7"] || want["8"] {
		cliutil.FatalIf(e.figs78())
	}
	if want["9"] {
		cliutil.FatalIf(e.fig9())
	}
	if want["10"] {
		cliutil.FatalIf(e.fig1011(10))
	}
	if want["11"] {
		cliutil.FatalIf(e.fig1011(11))
	}
	if want["transient"] {
		ms, err := cliutil.Mechanisms(*tmechs)
		cliutil.FatalIf(err)
		cliutil.FatalIf(e.figTransient(ms, *tload))
	}
	if want["resilience"] {
		ms, err := cliutil.Mechanisms(*rmechs)
		cliutil.FatalIf(err)
		cliutil.FatalIf(e.figResilience(ms, *rload))
	}
	if want["scaling"] {
		cliutil.FatalIf(e.figScaling(ctx))
	}
	fmt.Fprintf(e.summary, "\nTotal regeneration time: %s.\n", time.Since(start).Round(time.Second))
	sumPath := filepath.Join(*out, "summary.md")
	cliutil.FatalIf(os.WriteFile(sumPath, []byte(e.summary.String()), 0o644))
	fmt.Println("summary written to", sumPath)
	cliutil.FatalIf(run.Finish(ctx, os.Stderr))
	if len(e.pointErrs) > 0 {
		fmt.Fprintf(os.Stderr, "paperfigs: %d point(s) failed:\n%v\n",
			len(e.pointErrs), errors.Join(e.pointErrs...))
		os.Exit(1)
	}
}

// record notes a sweep's per-point failures (if any) and reports whether
// the sweep was cut short by cancellation, which does abort the run.
func (e *env) record(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	e.pointErrs = append(e.pointErrs, err)
	return nil
}

// vctBase and whBase give the two experimental environments.
func (e *env) vctBase() dragonfly.Config {
	cfg := dragonfly.PaperVCT(e.h)
	cfg.Warmup, cfg.Measure, cfg.Seed = e.warmup, e.measure, e.seed
	return cfg
}

func (e *env) whBase() dragonfly.Config {
	cfg := dragonfly.PaperWH(e.h)
	cfg.Warmup, cfg.Measure, cfg.Seed = e.warmup, e.measure, e.seed
	return cfg
}

// writePanel stores one figure panel as .dat and appends its markdown.
func (e *env) writePanel(name, title, xlabel string, metric sweep.Metric, series []sweep.Series) error {
	f, err := os.Create(filepath.Join(e.outDir, name+".dat"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := sweep.WriteDAT(f, xlabel, metric, series); err != nil {
		return err
	}
	fmt.Fprintf(e.summary, "## %s — %s\n\n", name, title)
	if err := sweep.WriteMarkdown(e.summary, xlabel, metric, series); err != nil {
		return err
	}
	fmt.Fprintln(e.summary)
	return nil
}

// figs45 regenerates Figures 4 (latency) and 5 (throughput) under VCT.
func (e *env) figs45() error {
	return e.loadFigs("fig4", "fig5", "VCT", e.vctBase(),
		[]dragonfly.Mechanism{dragonfly.PAR62, dragonfly.OLM, dragonfly.RLM}, 0.9, 6)
}

// figs78 regenerates Figures 7 (latency) and 8 (throughput) under WH.
func (e *env) figs78() error {
	return e.loadFigs("fig7", "fig8", "WH", e.whBase(),
		[]dragonfly.Mechanism{dragonfly.PAR62, dragonfly.RLM}, 0.8, 5)
}

// loadFigs regenerates one latency/throughput figure pair: load sweeps
// under UN, ADVG+1 and ADVG+h, each panel written once per metric. The
// curves are the flow control's adaptive mechanisms plus the pattern's
// oblivious reference (Minimal under UN, Valiant under ADVG) and
// Piggybacking; UN sweeps stop at unMax, n loads per panel.
func (e *env) loadFigs(latFig, thrFig, flow string, base dragonfly.Config, adaptive []dragonfly.Mechanism, unMax float64, n int) error {
	with := func(oblivious dragonfly.Mechanism) []dragonfly.Mechanism {
		return append(append([]dragonfly.Mechanism(nil), adaptive...), oblivious, dragonfly.Piggybacking)
	}
	panels := []struct {
		suffix  string
		traffic dragonfly.Traffic
		mechs   []dragonfly.Mechanism
		loads   []float64
	}{
		{"a_UN", dragonfly.Traffic{Kind: dragonfly.UN}, with(dragonfly.Minimal), sweep.Loads(0.05, unMax, n)},
		{"b_ADVG+1", dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}, with(dragonfly.Valiant), sweep.Loads(0.05, 1.0, n)},
		{fmt.Sprintf("c_ADVG+%d", e.h), dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: e.h}, with(dragonfly.Valiant), sweep.Loads(0.05, 1.0, n)},
	}
	for _, p := range panels {
		base.Traffic = p.traffic
		series, err := sweep.LoadSweep(base, p.mechs, p.loads, e.opt)
		if err = e.record(err); err != nil {
			return err
		}
		name := cliutil.TrafficName(p.traffic, e.h) + "/" + flow
		if err := e.writePanel(latFig+p.suffix, "Latency "+name, "Offered load", sweep.TotalLatency, series); err != nil {
			return err
		}
		if err := e.writePanel(thrFig+p.suffix, "Throughput "+name, "Offered load", sweep.AcceptedLoad, series); err != nil {
			return err
		}
	}
	return nil
}

// fig6 regenerates the VCT mix experiment: throughput (6a) and burst
// consumption time (6b) versus the percentage of global traffic.
func (e *env) fig6() error {
	return e.mixFig("fig6", "Figure 6b", "VCT", e.vctBase(), e.burstVCT,
		[]dragonfly.Mechanism{dragonfly.PAR62, dragonfly.OLM, dragonfly.RLM, dragonfly.Piggybacking},
		[]float64{0, 20, 40, 60, 80, 100})
}

// fig9 regenerates the WH mix and burst experiments.
func (e *env) fig9() error {
	return e.mixFig("fig9", "Figure 9b", "WH", e.whBase(), e.burstWH,
		[]dragonfly.Mechanism{dragonfly.PAR62, dragonfly.RLM, dragonfly.Piggybacking},
		[]float64{0, 25, 50, 75, 100})
}

// mixFig regenerates one mix figure: saturation throughput (panel a)
// and burst consumption time (panel b) over the ADVG+h/ADVL+1 mix.
func (e *env) mixFig(fig, burstLabel, flow string, base dragonfly.Config, burstPkts int, mechs []dragonfly.Mechanism, pcts []float64) error {
	thr, err := sweep.MixSweep(base, mechs, pcts, 1.0, e.opt)
	if err = e.record(err); err != nil {
		return err
	}
	if err := e.writePanel(fig+"a", "Throughput, ADVG+h/ADVL+1 mix, "+flow,
		"Global traffic (%)", sweep.AcceptedLoad, thr); err != nil {
		return err
	}
	burst, err := sweep.BurstSweep(base, mechs, pcts, burstPkts, e.opt)
	if err = e.record(err); err != nil {
		return err
	}
	if err := e.writePanel(fig+"b",
		fmt.Sprintf("Burst consumption (%d pkts/node), %s", burstPkts, flow),
		"Global traffic (%)", sweep.ConsumptionTime, burst); err != nil {
		return err
	}
	e.burstRatios(burstLabel, burst)
	return nil
}

// fig1011 regenerates the RLM threshold sweeps: Figure 10 under UN,
// Figure 11 under ADVG+1 (both VCT).
func (e *env) fig1011(fig int) error {
	base := e.vctBase()
	var loads []float64
	if fig == 10 {
		base.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
		loads = sweep.Loads(0.1, 0.9, 5)
	} else {
		base.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
		loads = sweep.Loads(0.1, 1.0, 5)
	}
	ths := []float64{0.30, 0.40, 0.45, 0.50, 0.60}
	series, err := sweep.ThresholdSweep(base, dragonfly.RLM, ths, loads, e.opt)
	if err = e.record(err); err != nil {
		return err
	}
	name := fmt.Sprintf("fig%d", fig)
	if err := e.writePanel(name+"a", "RLM threshold sweep latency, "+cliutil.TrafficName(base.Traffic, e.h),
		"Offered load", sweep.TotalLatency, series); err != nil {
		return err
	}
	return e.writePanel(name+"b", "RLM threshold sweep throughput, "+cliutil.TrafficName(base.Traffic, e.h),
		"Offered load", sweep.AcceptedLoad, series)
}

// figTransient produces the transient traffic-change figure: every node
// runs UN until mid-measurement, then abruptly switches to the
// pathological ADVG+h, and the per-window timeline shows how each
// mechanism reacts — adaptive mechanisms recover their accepted load
// within a few windows while Minimal collapses onto the single minimal
// global channel (~1/(2h²)).
func (e *env) figTransient(mechs []dragonfly.Mechanism, load float64) error {
	base := e.vctBase()
	switchAt := e.warmup + e.measure/2
	base.Phases = []dragonfly.PhaseSpec{
		{Traffic: dragonfly.Traffic{Kind: dragonfly.UN}, Load: load, Duration: switchAt},
		{Traffic: dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: e.h}, Load: load},
	}
	window := (e.warmup + e.measure) / 30
	if window < 50 {
		window = 50
	}
	base.WindowCycles = window

	camp := exp.NewMatrix(base).Mechanisms(mechs...).Campaign("transient")
	outs, err := sweep.Run(camp, e.opt)
	if err := e.record(err); err != nil {
		return err
	}

	series := make([]sweep.TimelineSeries, len(outs))
	for i := range outs {
		series[i] = sweep.TimelineSeries{Name: outs[i].Point.Series, Timeline: outs[i].Result.Timeline}
	}
	panels := []struct {
		name   string
		metric sweep.TimelineMetric
	}{
		{"figtransient_a_accepted", sweep.WindowAccepted},
		{"figtransient_b_latency", sweep.WindowLatency},
	}
	for _, p := range panels {
		f, err := os.Create(filepath.Join(e.outDir, p.name+".dat"))
		if err != nil {
			return err
		}
		err = sweep.WriteTimelineDAT(f, p.metric, series)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(e.summary, "## figtransient — UN→ADVG+%d switch at cycle %d (load %.2g, %d-cycle windows)\n\n",
		e.h, switchAt, load, window)
	fmt.Fprintf(e.summary, "| mechanism | accepted before switch | first window after | last window | recovered |\n|---|---|---|---|---|\n")
	for i := range outs {
		o := &outs[i]
		if o.Err != nil || o.Result.Timeline == nil {
			fmt.Fprintf(e.summary, "| %s | error | - | - | - |\n", o.Point.Series)
			continue
		}
		wins := o.Result.Timeline.Windows
		var before, after, last float64
		afterSet := false
		for _, w := range wins {
			if w.End <= switchAt {
				before = w.AcceptedLoad
			}
			if w.Start >= switchAt && !afterSet {
				after = w.AcceptedLoad
				afterSet = true
			}
		}
		if n := len(wins); n > 0 {
			last = wins[n-1].AcceptedLoad
		}
		recovered := "no"
		if before > 0 && last >= 0.8*before {
			recovered = "yes"
		}
		fmt.Fprintf(e.summary, "| %s | %.4f | %.4f | %.4f | %s |\n",
			o.Point.Series, before, after, last, recovered)
	}
	fmt.Fprintln(e.summary)
	return nil
}

// figResilience produces the degraded-topology figure the paper never ran:
// accepted load (and the fault-drop rate) under uniform traffic as the
// fraction of failed global links grows. Adaptive mechanisms — Valiant and
// Piggybacking re-drawing live detours at injection, OLM misrouting around
// dead channels in transit — retain most of their accepted load, while
// Minimal sheds every packet whose only channel died.
func (e *env) figResilience(mechs []dragonfly.Mechanism, load float64) error {
	base := e.vctBase()
	base.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
	base.Load = load
	fracs := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4}
	series, err := sweep.FaultSweep(base, mechs, fracs, e.opt)
	if err = e.record(err); err != nil {
		return err
	}
	if err := e.writePanel("figresilience_a_accepted",
		fmt.Sprintf("Accepted load vs. failed global links, UN@%.2g, VCT", load),
		"Failed global-link fraction", sweep.AcceptedLoad, series); err != nil {
		return err
	}
	if err := e.writePanel("figresilience_b_droprate",
		"Fault-drop rate vs. failed global links",
		"Failed global-link fraction", sweep.FaultDropRate, series); err != nil {
		return err
	}
	// Headline: each mechanism's accepted load at the worst degradation,
	// relative to Minimal's.
	var minimalWorst float64
	for _, s := range series {
		if s.Name == dragonfly.Minimal.String() && len(s.Points) > 0 {
			minimalWorst = s.Points[len(s.Points)-1].Result.AcceptedLoad
		}
	}
	if minimalWorst > 0 {
		fmt.Fprintf(e.summary, "Accepted load at %.0f%% failed global links, relative to Minimal:\n\n",
			100*fracs[len(fracs)-1])
		for _, s := range series {
			if s.Name == dragonfly.Minimal.String() || len(s.Points) == 0 {
				continue
			}
			fmt.Fprintf(e.summary, "- %s: %.0f%%\n",
				s.Name, 100*s.Points[len(s.Points)-1].Result.AcceptedLoad/minimalWorst)
		}
		fmt.Fprintln(e.summary)
	}

	// Degradation panels: the router-failure + flap matrix at paper scale
	// (-rh, default h=8) under the pathological ADVG+h pattern. Severity s
	// kills s whole routers from the start and flaps the adversarial
	// pattern's hot global channel for s periods mid-measurement, so the
	// panels show accepted load and the combined fault-drop + suppressed-
	// injection rate as the fabric degrades (see sweep.DegradationSweep).
	dbase := dragonfly.PaperVCT(e.rh)
	dbase.Warmup, dbase.Measure, dbase.Seed = e.warmup, e.measure, e.seed
	dbase.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: e.rh}
	dbase.Load = load
	severities := []int{0, 1, 2, 4, 8}
	dseries, err := sweep.DegradationSweep(dbase, mechs, severities, e.opt)
	if err = e.record(err); err != nil {
		return err
	}
	if err := e.writePanel("figresilience_c_degradation_accepted",
		fmt.Sprintf("Accepted load vs. failure severity (routers down + flapping channel), ADVG+%d@%.2g h=%d, VCT", e.rh, load, e.rh),
		"Failure severity", sweep.AcceptedLoad, dseries); err != nil {
		return err
	}
	return e.writePanel("figresilience_d_degradation_droprate",
		fmt.Sprintf("Fault-drop + suppressed-injection rate vs. failure severity, ADVG+%d h=%d", e.rh, e.rh),
		"Failure severity", sweep.DropSuppressRate, dseries)
}

// figScaling measures the engine itself rather than the mechanisms: panel
// (a) plots simulated cycles per second against the network size h — the
// paper's h=8 flanked by toy sizes and the beyond-paper h=12 and h=16
// presets — one series per worker count; panel (b) plots the live heap
// per node of the built network (workers do not change it). OLM under
// uniform traffic at 5% load with the paper's link latencies, run lengths
// short enough that h=16 stays in minutes: these are engine-throughput
// curves, not mechanism results, and 800 cycles of a quarter-million-node
// network average over plenty of work. Each point is timed one at a time
// (never through the worker pool) and reports the fastest of two runs.
func (e *env) figScaling(ctx context.Context) error {
	hs := []int{2, 4, dragonfly.PaperH, dragonfly.ScaleH12, dragonfly.ScaleH16}
	workerSet := []int{1, 2, 4, 8}
	const (
		scaleWarmup  = 200
		scaleMeasure = 600
		scaleReps    = 2
	)
	cps := make(map[[2]int]float64)
	bytesPerNode := make(map[int]float64)
	for _, h := range hs {
		_, nodes, _, err := dragonfly.NetworkSize(h)
		if err != nil {
			return err
		}
		for _, w := range workerSet {
			cfg := dragonfly.ScaleVCT(h)
			cfg.Warmup, cfg.Measure, cfg.Seed = scaleWarmup, scaleMeasure, e.seed
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
			cfg.Load = 0.05
			cfg.Workers = w
			tm, err := cliutil.BestOf(ctx, cfg, scaleReps, true)
			if err != nil {
				return err
			}
			cps[[2]int{h, w}] = tm.CyclesPerSec()
			if w == 1 {
				bytesPerNode[h] = float64(tm.HeapBytes) / float64(nodes)
			}
			if e.opt.Progress != nil {
				e.opt.Progress(fmt.Sprintf("scaling h=%d w=%d", h, w),
					sweep.Point{X: float64(h), Result: tm.Result})
			}
		}
	}

	a, err := os.Create(filepath.Join(e.outDir, "figscaling_a_cyclespersec.dat"))
	if err != nil {
		return err
	}
	defer a.Close()
	fmt.Fprintf(a, "# x: h (network size; nodes = h*2h*(2h^2+1))\n# y: Simulated cycles per second\n")
	for _, w := range workerSet {
		fmt.Fprintf(a, "\n# series: workers=%d\n", w)
		for _, h := range hs {
			fmt.Fprintf(a, "%d\t%g\n", h, cps[[2]int{h, w}])
		}
	}
	b, err := os.Create(filepath.Join(e.outDir, "figscaling_b_bytespernode.dat"))
	if err != nil {
		return err
	}
	defer b.Close()
	fmt.Fprintf(b, "# x: h (network size)\n# y: Live heap per node (bytes), workers=1\n\n# series: heap/node\n")
	for _, h := range hs {
		fmt.Fprintf(b, "%d\t%g\n", h, bytesPerNode[h])
	}

	fmt.Fprintf(e.summary, "## figscaling — engine throughput and memory vs. network size (OLM, UN@0.05)\n\n")
	fmt.Fprintf(e.summary, "| h | nodes | cycles/s w=1 | w=2 | w=4 | w=8 | heap bytes/node |\n|---|---|---|---|---|---|---|\n")
	for _, h := range hs {
		_, nodes, _, _ := dragonfly.NetworkSize(h)
		fmt.Fprintf(e.summary, "| %d | %d |", h, nodes)
		for _, w := range workerSet {
			fmt.Fprintf(e.summary, " %.0f |", cps[[2]int{h, w}])
		}
		fmt.Fprintf(e.summary, " %.0f |\n", bytesPerNode[h])
	}
	fmt.Fprintln(e.summary)
	return nil
}

// burstRatios appends the paper's burst headline numbers: each mechanism's
// average consumption time as a fraction of Piggybacking's.
func (e *env) burstRatios(label string, series []sweep.Series) {
	var pbAvg float64
	for _, s := range series {
		if s.Name == dragonfly.Piggybacking.String() {
			pbAvg = avgConsumption(s)
		}
	}
	if pbAvg <= 0 {
		return
	}
	fmt.Fprintf(e.summary, "%s consumption time relative to PiggyBacking (paper: OLM 36%%, RLM 42.5%% on 6b; RLM 43%% on 9b):\n\n", label)
	for _, s := range series {
		if s.Name == dragonfly.Piggybacking.String() {
			continue
		}
		fmt.Fprintf(e.summary, "- %s: %.0f%%\n", s.Name, 100*avgConsumption(s)/pbAvg)
	}
	fmt.Fprintln(e.summary)
}

func avgConsumption(s sweep.Series) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.Result.ConsumptionCycles > 0 {
			sum += float64(p.Result.ConsumptionCycles)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
