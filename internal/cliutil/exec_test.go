package cliutil

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	dragonfly "repro"
)

// TestExecFlagsWiring: the shared execution flags open exactly what
// they name — and -remote wins over -cache.
func TestExecFlagsWiring(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "points.jsonl")

	fs := flag.NewFlagSet("local", flag.ContinueOnError)
	run := ExecFlags(fs)
	if err := fs.Parse([]string{"-parallel", "3", "-cache", filepath.Join(dir, "cache"), "-jsonl", jsonl, "-q"}); err != nil {
		t.Fatal(err)
	}
	opt, err := run.Options(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Parallelism != 3 || opt.Cache == nil || opt.JSONL == nil || opt.Remote != nil || opt.Progress != nil {
		t.Fatalf("local options: %+v", opt)
	}
	var summary bytes.Buffer
	if err := run.Finish(context.Background(), &summary); err != nil {
		t.Fatal(err)
	}
	if got := summary.String(); got != "cache: 0 hits, 0 misses\n" {
		t.Fatalf("summary %q", got)
	}
	if _, err := os.Stat(jsonl); err != nil {
		t.Fatalf("-jsonl file not created: %v", err)
	}

	fs = flag.NewFlagSet("remote", flag.ContinueOnError)
	run = ExecFlags(fs)
	if err := fs.Parse([]string{"-remote", "http://127.0.0.1:1", "-cache", filepath.Join(dir, "unused")}); err != nil {
		t.Fatal(err)
	}
	if opt, err = run.Options(context.Background()); err != nil {
		t.Fatal(err)
	}
	if opt.Remote == nil || opt.Cache != nil || opt.Progress == nil {
		t.Fatalf("remote options: %+v", opt)
	}
	if _, err := os.Stat(filepath.Join(dir, "unused")); err == nil {
		t.Fatal("-cache directory opened despite -remote")
	}
}

// TestBestOf: the timed runner reports the run actually simulated with its
// live heap — the network counted in it — runs at least once, and
// surfaces Prepare errors.
func TestBestOf(t *testing.T) {
	cfg := dragonfly.PaperVCT(2)
	cfg.LatLocal, cfg.LatGlobal = 4, 16
	cfg.Warmup, cfg.Measure, cfg.Load = 100, 300, 0.2
	best, err := BestOf(context.Background(), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(best.Result, want) {
		t.Fatalf("timed result differs from a plain run:\n got: %+v\nwant: %+v", best.Result, want)
	}
	if best.Cycles != 400 || best.WallSeconds <= 0 || best.CyclesPerSec() <= 0 || best.HeapBytes == 0 {
		t.Fatalf("implausible timing: %+v", best)
	}
	// A finished run gives its network up to the next Prepare, but the
	// probe runs with the simulator still reachable: the live heap holds,
	// over what it is without one, at least half of what building that
	// network allocates.
	var base, m0, m1 runtime.MemStats
	runtime.GC() // nothing holds a network now, idle or not
	runtime.ReadMemStats(&base)
	runtime.ReadMemStats(&m0)
	if _, err := dragonfly.Prepare(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	built := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("live heap %d B after the run, %d B without a network; its build allocates %d B", best.HeapBytes, base.HeapAlloc, built)
	if best.HeapBytes < base.HeapAlloc+built/2 {
		t.Fatalf("live heap %d B after the run, %d B without a network, but building one allocates %d B",
			best.HeapBytes, base.HeapAlloc, built)
	}
	once, err := BestOf(context.Background(), cfg, 0) // reps < 1 still runs once
	if err != nil || once.Cycles != 400 || once.HeapBytes == 0 {
		t.Fatalf("reps 0: %+v, %v", once, err)
	}
	cfg.H = -1
	if _, err := BestOf(context.Background(), cfg, 1); err == nil {
		t.Fatal("invalid config accepted")
	}
}
