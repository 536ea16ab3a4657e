package cliutil

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
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

// TestBestOf: the shared timed runner reports the run actually simulated,
// takes the heap probe only when asked, and surfaces Prepare errors.
func TestBestOf(t *testing.T) {
	cfg := dragonfly.PaperVCT(2)
	cfg.LatLocal, cfg.LatGlobal = 4, 16
	cfg.Warmup, cfg.Measure, cfg.Load = 100, 300, 0.2
	plain, err := BestOf(context.Background(), cfg, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Result, want) {
		t.Fatalf("timed result differs from a plain run:\n got: %+v\nwant: %+v", plain.Result, want)
	}
	if plain.Cycles != 400 || plain.WallSeconds <= 0 || plain.CyclesPerSec() <= 0 || plain.Allocs == 0 {
		t.Fatalf("implausible timing: %+v", plain)
	}
	if plain.HeapBytes != 0 {
		t.Fatalf("heap probed without being asked: %d", plain.HeapBytes)
	}
	heap, err := BestOf(context.Background(), cfg, 0, true) // reps < 1 still runs once
	if err != nil || heap.HeapBytes == 0 {
		t.Fatalf("live-heap run: %+v, %v", heap, err)
	}
	cfg.H = -1
	if _, err := BestOf(context.Background(), cfg, 1, false); err == nil {
		t.Fatal("invalid config accepted")
	}
}
