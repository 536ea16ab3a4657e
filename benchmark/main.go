// Command benchmark is the repository's benchmark: six workloads, from raw
// Sim.Run to the worker fleet, measured end to end with tracing off and
// layer by layer in a separate traced run. See README.md.
//
// One run (what BENCHMARK.json's command does, one process per run):
//
//	bash benchmark/run.sh --workload lowload_small --seed 1 --seconds 10 --trace 0
//
// The whole suite (K rounds of one fresh process per workload, then one
// traced round), with a report in benchmark/out/report.json:
//
//	bash benchmark/run.sh [-k 5] [-seed 1] [-selfcheck] [-update-golden]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
)

func main() {
	name := flag.String("workload", "", "run this one workload in this process and print its result line")
	seed := flag.Uint64("seed", 1, "workload seed: point i gets Config.Seed = exp.PointSeed(seed, i)")
	seconds := flag.Float64("seconds", 0, "with -workload: repeat timed repetitions until this much time is measured (0 = one repetition)")
	trace := flag.Int("trace", 0, "with -workload: 1 = the traced run, printing the per-layer metrics")
	k := flag.Int("k", 5, "suite: rounds, each one fresh process per workload (at least 3)")
	selfcheck := flag.Bool("selfcheck", false, "suite: run two sets and fail unless they agree within the bounds")
	update := flag.Bool("update-golden", false, "rewrite golden/<workload>.seed1.txt from this build's outputs")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the tables in spec.go define it, and exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch {
	case *spec:
		err = printSpec()
	case *update:
		err = updateGolden(ctx)
	case *name != "":
		err = runOne(ctx, *name, *seed, *seconds, *trace != 0)
	default:
		err = runSuite(ctx, suiteOpts{Seed: *seed, K: max(*k, 3), Selfcheck: *selfcheck})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is a single run: its last line of standard output is the result.
func runOne(ctx context.Context, name string, seed uint64, seconds float64, trace bool) error {
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, det, err := runWorkload(ctx, runOpts{Workload: w, Seed: seed, Seconds: seconds, Trace: trace})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	path, err := detailPath(name, trace)
	if err != nil {
		return err
	}
	if err := writeJSON(path, det); err != nil {
		return err
	}
	for _, n := range det.Notes {
		fmt.Fprintln(os.Stderr, "benchmark:", name+":", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d points failed their checks", name, res.Failed, res.Attempted)
	}
	return nil
}

// updateGolden rewrites the committed digests from one repetition of each
// workload at the golden seed.
func updateGolden(ctx context.Context) error {
	for _, w := range workloads {
		o := runOpts{Workload: w, Seed: goldenSeed}
		d, _, _, err := open(ctx, o, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		r, err := d.pass(ctx)
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		if r.Failed > 0 || len(r.Notes) > 0 {
			return fmt.Errorf("%s: refusing to record a failing run: %d failed points, %v", w.Name, r.Failed, r.Notes)
		}
		if err := writeGolden(w.Name, r.Digests); err != nil {
			return err
		}
		fmt.Printf("%s: %d digests -> %s\n", w.Name, len(r.Digests), goldenPath(w.Name))
	}
	return nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
