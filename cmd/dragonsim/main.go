// Command dragonsim runs one dragonfly simulation and prints its metrics.
//
// Examples:
//
//	dragonsim -h 4 -mech OLM -traffic ADVG -offset 1 -load 0.5
//	dragonsim -h 8 -mech RLM -flow WH -packet 80 -traffic UN -load 0.3
//	dragonsim -h 4 -mech RLM -traffic MIX -globalpct 60 -burst 1000
//
// With -phases the run follows a phased workload instead of one static
// pattern; -window adds a per-window timeline to the output:
//
//	dragonsim -h 4 -mech OLM -phases "UN@0.3x4000,ADVG+4@0.3" -window 250
//	dragonsim -h 4 -mech OLM -phases "0-527=UN@0.25;528-1055=ADVG+4@0.5" -window 500
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	dragonfly "repro"
	"repro/internal/cliutil"
)

func main() {
	var (
		h         = flag.Int("h", 4, "dragonfly parameter (paper: 8; scale presets: 12, 16)")
		mech      = flag.String("mech", "OLM", "routing mechanism: Minimal, Valiant, PiggyBacking, PAR-6/2, RLM, OLM, RLM-signonly, OFAR")
		flow      = flag.String("flow", "VCT", "flow control: VCT or WH")
		packet    = flag.Int("packet", 0, "packet size in phits (default: 8 for VCT, 80 for WH)")
		trafficK  = flag.String("traffic", "UN", "traffic pattern: UN, ADVG, ADVL, MIX")
		offset    = flag.Int("offset", 1, "ADVG/ADVL offset")
		globalPct = flag.Float64("globalpct", 50, "MIX: percent of ADVG+h traffic")
		load      = flag.Float64("load", 0.5, "offered load in phits/(node*cycle)")
		burst     = flag.Int("burst", 0, "burst packets per node (0 = steady state)")
		phases    = flag.String("phases", "", `phased workload spec, e.g. "UN@0.3x4000,ADVG+4@0.3" (overrides -traffic/-load/-burst; see README)`)
		faults    = flag.String("faults", "", `fault scenario spec, e.g. "g=0.1;kill@5000=g0-4", "router=5@1000-4000", "grp=2" or "flap@2000+400/100=g0-4" (see README)`)
		window    = flag.Int64("window", 0, "timeline window width in cycles (0 = no timeline)")
		threshold = flag.Float64("threshold", 0.45, "misrouting threshold fraction")
		warmup    = flag.Int64("warmup", 3000, "warmup cycles")
		measure   = flag.Int64("measure", 6000, "measured cycles")
		seed      = flag.Uint64("seed", 1, "random seed")
		workers   = flag.Int("workers", 1, "intra-simulation worker count")
		stale     = flag.Int64("stale", 0, "cycles the routing view lags behind fault events (stale link state)")
		asJSON    = flag.Bool("json", false, "print the result as JSON")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()

	m, err := dragonfly.ParseMechanism(*mech)
	cliutil.FatalIf(err)
	f, err := dragonfly.ParseFlowControl(*flow)
	cliutil.FatalIf(err)

	cfg := dragonfly.PaperVCT(*h)
	if f == dragonfly.WH {
		cfg = dragonfly.PaperWH(*h)
	}
	cfg.Mechanism = m
	if *packet > 0 {
		cfg.PacketPhits = *packet
	}
	cfg.Threshold = *threshold
	cfg.Warmup, cfg.Measure = *warmup, *measure
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.WindowCycles = *window
	cfg.StaleCycles = *stale

	if *faults != "" {
		cfg.Faults, err = cliutil.Faults(*faults, *h)
		cliutil.FatalIf(err)
	}
	if *phases != "" {
		cfg.Workload, err = cliutil.Phases(*phases)
		cliutil.FatalIf(err)
	} else {
		cfg.Traffic, err = cliutil.Traffic(*trafficK, *offset, *globalPct)
		cliutil.FatalIf(err)
		if *burst > 0 {
			cfg.BurstPackets = *burst
		} else {
			cfg.Load = *load
		}
	}
	cliutil.FatalIf(cfg.Validate())

	routers, nodes, groups, err := dragonfly.NetworkSize(*h)
	cliutil.FatalIf(err)
	if !*asJSON {
		fmt.Printf("dragonfly h=%d: %d routers, %d nodes, %d groups; %s/%s\n",
			*h, routers, nodes, groups, m, f)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		cliutil.FatalIf(err)
		cliutil.FatalIf(pprof.StartCPUProfile(f))
	}
	res, err := dragonfly.Run(cfg)
	cliutil.FatalIf(err)
	if *cpuProf != "" {
		pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		cliutil.FatalIf(err)
		runtime.GC() // surface live heap, not garbage
		cliutil.FatalIf(pprof.WriteHeapProfile(f))
		cliutil.FatalIf(f.Close())
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		cliutil.FatalIf(enc.Encode(res))
		return
	}
	fmt.Printf("pattern            %s\n", res.Pattern)
	fmt.Printf("offered load       %.4f phits/(node*cycle)\n", res.OfferedLoad)
	fmt.Printf("accepted load      %.4f phits/(node*cycle)\n", res.AcceptedLoad)
	fmt.Printf("avg latency        %.1f cycles (network %.1f, p50 %.0f, p99 %.0f)\n",
		res.AvgTotalLatency, res.AvgNetworkLatency, res.P50Latency, res.P99Latency)
	fmt.Printf("hops/packet        %.2f local, %.2f global\n", res.AvgLocalHops, res.AvgGlobalHops)
	fmt.Printf("misroutes/packet   %.3f local, %.3f global\n", res.LocalMisrouteRate, res.GlobalMisrouteRate)
	fmt.Printf("delivered          %d packets over %d cycles\n", res.Delivered, res.Cycles)
	if res.FaultDrops > 0 {
		fmt.Printf("fault drops        %d packets (no surviving route)\n", res.FaultDrops)
	}
	fmt.Printf("link utilization   %.3f local, %.3f global\n", res.LocalLinkUtil, res.GlobalLinkUtil)
	if res.ConsumptionCycles > 0 {
		fmt.Printf("burst consumption  %d cycles\n", res.ConsumptionCycles)
	}
	for _, ph := range res.PhaseDigests {
		fmt.Printf("phase %-2d %-22s cycles [%d, %d): accepted %.4f lat %.1f misroutes %.3f/%.3f\n",
			ph.Index, ph.Label, ph.Start, ph.End,
			ph.AcceptedLoad, ph.AvgTotalLatency, ph.LocalMisrouteRate, ph.GlobalMisrouteRate)
	}
	if res.Timeline != nil {
		fmt.Printf("timeline (%d-cycle windows):\n", res.Timeline.WindowCycles)
		fmt.Printf("  %10s %10s %10s %10s %10s\n", "cycle", "accepted", "latency", "p99", "delivered")
		for _, w := range res.Timeline.Windows {
			fmt.Printf("  %10d %10.4f %10.1f %10.0f %10d\n",
				w.Start, w.AcceptedLoad, w.AvgTotalLatency, w.P99Latency, w.Delivered)
		}
	}
	if res.Deadlock {
		fmt.Println("DEADLOCK detected by the watchdog")
		os.Exit(1)
	}
}
