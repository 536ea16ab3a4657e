package cliutil

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
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
