package dragonfly_test

// One benchmark per table/figure of the paper. Each benchmark iteration
// runs a reduced-scale version of the corresponding experiment (h=2 or
// h=3, shortened latencies) and reports the figure's metric via
// b.ReportMetric, so `go test -bench=.` regenerates a miniature of the
// whole evaluation. cmd/paperfigs produces the full-resolution series.

import (
	"context"
	"testing"

	dragonfly "repro"
)

// benchBase is the reduced-scale environment shared by figure benches.
func benchBase(h int, flow dragonfly.FlowControl) dragonfly.Config {
	var cfg dragonfly.Config
	if flow == dragonfly.WH {
		cfg = dragonfly.PaperWH(h)
		cfg.PacketPhits = 40
	} else {
		cfg = dragonfly.PaperVCT(h)
	}
	cfg.LatLocal, cfg.LatGlobal = 4, 16
	cfg.Warmup, cfg.Measure = 600, 1500
	cfg.Seed = 1
	return cfg
}

// reportPoint runs cfg once per b.N iteration and reports the metrics the
// figure plots.
func reportPoint(b *testing.B, cfg dragonfly.Config) {
	b.Helper()
	var last dragonfly.Result
	for i := 0; i < b.N; i++ {
		res, err := dragonfly.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Deadlock {
			b.Fatalf("%s deadlocked", res.Mechanism)
		}
		last = res
	}
	b.ReportMetric(last.AcceptedLoad, "accepted")
	b.ReportMetric(last.AvgTotalLatency, "latency_cyc")
	if last.ConsumptionCycles > 0 {
		b.ReportMetric(float64(last.ConsumptionCycles), "drain_cyc")
	}
}

// BenchmarkTableIParityTable regenerates and verifies Table I.
func BenchmarkTableIParityTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := dragonfly.ParityTableRows()
		if len(out) != 16 {
			b.Fatalf("Table I has %d rows", len(out))
		}
	}
}

// figureLoadBench emits one sub-benchmark per mechanism at a near-saturation
// load — the regime the paper's throughput panels compare.
func figureLoadBench(b *testing.B, flow dragonfly.FlowControl, tr dragonfly.Traffic, load float64, mechs []dragonfly.Mechanism) {
	for _, m := range mechs {
		b.Run(m.String(), func(b *testing.B) {
			cfg := benchBase(3, flow)
			cfg.Mechanism = m
			cfg.Traffic = tr
			cfg.Load = load
			reportPoint(b, cfg)
		})
	}
}

var vctUNMechs = []dragonfly.Mechanism{
	dragonfly.PAR62, dragonfly.OLM, dragonfly.RLM, dragonfly.Minimal, dragonfly.Piggybacking,
}

var vctADVMechs = []dragonfly.Mechanism{
	dragonfly.PAR62, dragonfly.OLM, dragonfly.RLM, dragonfly.Valiant, dragonfly.Piggybacking,
}

var whUNMechs = []dragonfly.Mechanism{
	dragonfly.PAR62, dragonfly.RLM, dragonfly.Minimal, dragonfly.Piggybacking,
}

var whADVMechs = []dragonfly.Mechanism{
	dragonfly.PAR62, dragonfly.RLM, dragonfly.Valiant, dragonfly.Piggybacking,
}

// Figures 4a/5a: UN, VCT.
func BenchmarkFig4a5aUniformVCT(b *testing.B) {
	figureLoadBench(b, dragonfly.VCT, dragonfly.Traffic{Kind: dragonfly.UN}, 0.45, vctUNMechs)
}

// Figures 4b/5b: ADVG+1, VCT.
func BenchmarkFig4b5bADVG1VCT(b *testing.B) {
	figureLoadBench(b, dragonfly.VCT, dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}, 0.8, vctADVMechs)
}

// Figures 4c/5c: ADVG+h, VCT.
func BenchmarkFig4c5cADVGhVCT(b *testing.B) {
	figureLoadBench(b, dragonfly.VCT, dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 3}, 0.8, vctADVMechs)
}

// Figure 6a: mixed ADVG+h/ADVL+1 throughput at full load, VCT.
func BenchmarkFig6aMixVCT(b *testing.B) {
	for _, m := range []dragonfly.Mechanism{dragonfly.PAR62, dragonfly.OLM, dragonfly.RLM, dragonfly.Piggybacking} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := benchBase(3, dragonfly.VCT)
			cfg.Mechanism = m
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: 40}
			cfg.Load = 1.0
			reportPoint(b, cfg)
		})
	}
}

// Figure 6b: burst consumption, VCT.
func BenchmarkFig6bBurstVCT(b *testing.B) {
	for _, m := range []dragonfly.Mechanism{dragonfly.OLM, dragonfly.RLM, dragonfly.Piggybacking} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := benchBase(3, dragonfly.VCT)
			cfg.Mechanism = m
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: 40}
			cfg.BurstPackets = 30
			reportPoint(b, cfg)
		})
	}
}

// Figures 7a/8a: UN, WH.
func BenchmarkFig7a8aUniformWH(b *testing.B) {
	figureLoadBench(b, dragonfly.WH, dragonfly.Traffic{Kind: dragonfly.UN}, 0.35, whUNMechs)
}

// Figures 7b/8b: ADVG+1, WH.
func BenchmarkFig7b8bADVG1WH(b *testing.B) {
	figureLoadBench(b, dragonfly.WH, dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}, 0.6, whADVMechs)
}

// Figures 7c/8c: ADVG+h, WH.
func BenchmarkFig7c8cADVGhWH(b *testing.B) {
	figureLoadBench(b, dragonfly.WH, dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 3}, 0.6, whADVMechs)
}

// Figure 9a: mixed traffic, WH.
func BenchmarkFig9aMixWH(b *testing.B) {
	for _, m := range []dragonfly.Mechanism{dragonfly.PAR62, dragonfly.RLM, dragonfly.Piggybacking} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := benchBase(3, dragonfly.WH)
			cfg.Mechanism = m
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: 40}
			cfg.Load = 1.0
			reportPoint(b, cfg)
		})
	}
}

// Figure 9b: burst consumption, WH.
func BenchmarkFig9bBurstWH(b *testing.B) {
	for _, m := range []dragonfly.Mechanism{dragonfly.PAR62, dragonfly.RLM, dragonfly.Piggybacking} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := benchBase(3, dragonfly.WH)
			cfg.Mechanism = m
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: 40}
			cfg.BurstPackets = 6
			reportPoint(b, cfg)
		})
	}
}

// Figures 10/11: RLM threshold sensitivity under UN and ADVG+1.
func BenchmarkFig10ThresholdUN(b *testing.B) {
	benchThreshold(b, dragonfly.Traffic{Kind: dragonfly.UN}, 0.5)
}

func BenchmarkFig11ThresholdADVG1(b *testing.B) {
	benchThreshold(b, dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}, 0.7)
}

func benchThreshold(b *testing.B, tr dragonfly.Traffic, load float64) {
	for _, th := range []float64{0.30, 0.45, 0.60} {
		b.Run(fmtThreshold(th), func(b *testing.B) {
			cfg := benchBase(3, dragonfly.VCT)
			cfg.Mechanism = dragonfly.RLM
			cfg.Threshold = th
			cfg.Traffic = tr
			cfg.Load = load
			reportPoint(b, cfg)
		})
	}
}

func fmtThreshold(th float64) string {
	return map[float64]string{0.30: "th30", 0.45: "th45", 0.60: "th60"}[th]
}

// BenchmarkAblationOFARvsOLM reproduces the paper's motivation against the
// prior escape-ring scheme: under the pathological ADVG+h pattern, OLM's
// in-network escape paths should beat OFAR, whose low-capacity ring
// congests (paper Section II).
func BenchmarkAblationOFARvsOLM(b *testing.B) {
	for _, m := range []dragonfly.Mechanism{dragonfly.OFAR, dragonfly.OLM} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := benchBase(3, dragonfly.VCT)
			cfg.Mechanism = m
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 3}
			cfg.Load = 0.8
			reportPoint(b, cfg)
		})
	}
}

// BenchmarkAblationSignOnly contrasts the paper's parity-sign restriction
// with the rejected sign-only one under ADVL+1, where route balance
// matters most (Section III-B).
func BenchmarkAblationSignOnly(b *testing.B) {
	for _, m := range []dragonfly.Mechanism{dragonfly.RLM, dragonfly.RLMSignOnly} {
		b.Run(m.String(), func(b *testing.B) {
			cfg := benchBase(3, dragonfly.VCT)
			cfg.Mechanism = m
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVL, Offset: 1}
			cfg.Load = 1.0
			reportPoint(b, cfg)
		})
	}
}

// BenchmarkAblationRemoteCandidates measures the value of PAR-style
// redirects through remote global channels (the l-l-g path shapes) under
// ADVG+1.
func BenchmarkAblationRemoteCandidates(b *testing.B) {
	for _, rc := range []int{-1, 2, 6} { // -1 disables sampling
		name := map[int]string{-1: "own-ports-only", 2: "remote2", 6: "remote6"}[rc]
		b.Run(name, func(b *testing.B) {
			cfg := benchBase(3, dragonfly.VCT)
			cfg.Mechanism = dragonfly.OLM
			cfg.RemoteCandidates = rc // -1 = own global ports only
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
			cfg.Load = 0.8
			reportPoint(b, cfg)
		})
	}
}

// BenchmarkEngineScaling reports simulated cycles per second at increasing
// network sizes (serial).
func BenchmarkEngineScaling(b *testing.B) {
	for _, h := range []int{2, 3, 4} {
		b.Run(fmtH(h), func(b *testing.B) {
			cfg := benchBase(h, dragonfly.VCT)
			cfg.Mechanism = dragonfly.RLM
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
			cfg.Load = 0.3
			cfg.Warmup, cfg.Measure = 0, 500
			for i := 0; i < b.N; i++ {
				if _, err := dragonfly.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
			routers, _, _, _ := dragonfly.NetworkSize(h)
			b.ReportMetric(float64(routers), "routers")
		})
	}
}

func fmtH(h int) string { return map[int]string{2: "h2", 3: "h3", 4: "h4"}[h] }

// BenchmarkEngineParallel compares 1 vs 2 intra-simulation workers.
func BenchmarkEngineParallel(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(map[int]string{1: "serial", 2: "workers2"}[w], func(b *testing.B) {
			cfg := benchBase(4, dragonfly.VCT)
			cfg.Mechanism = dragonfly.RLM
			cfg.Traffic = dragonfly.Traffic{Kind: dragonfly.UN}
			cfg.Load = 0.3
			cfg.Warmup, cfg.Measure = 0, 500
			cfg.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := dragonfly.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// campaignPoint is the kind of point a sweep is made of hundreds of: a
// short low-load run whose network costs more to build than to step.
func campaignPoint(h int) dragonfly.Config {
	cfg := benchBase(h, dragonfly.VCT)
	cfg.Mechanism = dragonfly.RLM
	cfg.Load = 0.1
	cfg.Warmup, cfg.Measure = 100, 200
	return cfg
}

// benchPoints runs b.N campaign points, each with its own seed, through
// run, and reports allocations: the pair below is the per-point price of a
// fresh network against a re-initialised one.
func benchPoints(b *testing.B, run func(dragonfly.Config) (dragonfly.Result, error)) {
	for _, h := range []int{2, 3} {
		b.Run(fmtH(h), func(b *testing.B) {
			cfg := campaignPoint(h)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRun is one campaign point the one-shot way: dragonfly.Run
// builds the network, steps it and throws it away.
func BenchmarkRun(b *testing.B) { benchPoints(b, dragonfly.Run) }

// BenchmarkRunnerReuse is the same points on one Runner, as every campaign
// lane runs them: the network is built once and re-initialised per point.
func BenchmarkRunnerReuse(b *testing.B) {
	var lane dragonfly.Runner
	benchPoints(b, func(cfg dragonfly.Config) (dragonfly.Result, error) {
		return lane.RunContext(context.Background(), cfg)
	})
}

// BenchmarkRunWorkers2HalfIdle is the uneven-load parallel path in one
// number: an h=4 network whose first half runs a UN job while the second
// half idles, 2,000 cycles at two engine workers — the case the fixed
// striped partition exists for.
func BenchmarkRunWorkers2HalfIdle(b *testing.B) {
	cfg := benchBase(4, dragonfly.VCT)
	cfg.Mechanism = dragonfly.OLM
	_, nodes, _, err := dragonfly.NetworkSize(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Workload = []dragonfly.JobSpec{{
		FirstNode: 0, LastNode: nodes/2 - 1,
		Phases: []dragonfly.PhaseSpec{{Traffic: dragonfly.Traffic{Kind: dragonfly.UN}, Load: 0.2}},
	}}
	cfg.Warmup, cfg.Measure = 500, 1500
	cfg.Workers = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dragonfly.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFaultedStale is the benchmark's faulted family (see
// benchmark/workloads.go, transient_faults) as one Go benchmark: h=3 OLM at
// load 0.2 under 5% failed global links, a timed router outage and ten flap
// periods, the routing view 200 cycles stale — fault events, the second
// fault set and epoch-driven plan rebuilds on every cycle of the run.
func BenchmarkRunFaultedStale(b *testing.B) {
	cfg := benchBase(3, dragonfly.VCT)
	cfg.Mechanism = dragonfly.OLM
	cfg.Load = 0.2
	cfg.Warmup, cfg.Measure, cfg.StaleCycles = 1000, 9000, 200
	cfg.Faults = &dragonfly.FaultSpec{
		GlobalFraction: 0.05,
		Routers:        []dragonfly.RouterFault{{Router: 5, At: 3000, Until: 6000}},
		Flaps: []dragonfly.FlapSpec{{
			Link: dragonfly.LinkID{Router: 0, Port: 5}, At: 2000, Period: 400, Down: 100, Count: 10,
		}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dragonfly.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
