package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/exp/srv"
	"repro/internal/sweep"
)

// Exec is the execution wiring dfsweep and paperfigs share: where
// campaigns run (-parallel, -remote), what they reuse (-cache) and what
// they leave behind (-jsonl, progress lines unless -q).
type Exec struct {
	parallel                *int
	remote, cacheDir, jsonl *string
	quiet                   *bool

	client    *srv.Client
	cache     *exp.Cache
	jsonlFile *os.File
}

// ExecFlags registers the execution flags on fs.
func ExecFlags(fs *flag.FlagSet) *Exec {
	return &Exec{
		parallel: fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)"),
		remote:   fs.String("remote", "", "execute campaigns on a dragonsrv server at this base URL (e.g. http://127.0.0.1:8080) instead of in-process"),
		cacheDir: fs.String("cache", "", "result cache directory (empty = no cache; ignored with -remote)"),
		jsonl:    fs.String("jsonl", "", "stream per-point JSONL results to this file"),
		quiet:    fs.Bool("q", false, "suppress progress lines"),
	}
}

// Options opens what the parsed flags name — remote client, cache
// directory, JSONL file — and returns the sweep options that use them,
// with a timestamped stderr line per finished point unless -q.
func (e *Exec) Options(ctx context.Context) (sweep.Options, error) {
	opt := sweep.Options{Parallelism: *e.parallel, Context: ctx}
	if *e.remote != "" {
		e.client = srv.NewClient(*e.remote)
		opt.Remote = e.client
	} else if *e.cacheDir != "" {
		cache, err := exp.OpenCache(*e.cacheDir)
		if err != nil {
			return opt, err
		}
		e.cache, opt.Cache = cache, cache
	}
	if *e.jsonl != "" {
		f, err := os.Create(*e.jsonl)
		if err != nil {
			return opt, err
		}
		e.jsonlFile, opt.JSONL = f, f
	}
	if !*e.quiet {
		opt.Progress = func(series string, p sweep.Point) {
			now := time.Now().Format("15:04:05")
			if p.Err != nil {
				fmt.Fprintf(os.Stderr, "[%s] FAIL %-18s x=%.3g: %v\n", now, series, p.X, p.Err)
				return
			}
			fmt.Fprintf(os.Stderr, "[%s] %-18s x=%.3g acc=%.4f lat=%.1f\n",
				now, series, p.X, p.Result.AcceptedLoad, p.Result.AvgTotalLatency)
		}
	}
	return opt, nil
}

// Finish closes the JSONL file and writes the run's reuse summary to w:
// cache hits and misses for a local run; for a remote one, the last
// campaign's simulated / from-store / deduped split and the server
// store's counters.
func (e *Exec) Finish(ctx context.Context, w io.Writer) error {
	if e.cache != nil {
		hits, misses := e.cache.Stats()
		fmt.Fprintf(w, "cache: %d hits, %d misses\n", hits, misses)
	}
	if e.client != nil {
		st := e.client.LastStatus()
		fmt.Fprintf(w, "remote: campaign %s: %d simulated, %d from store, %d deduped\n",
			st.ID, st.Executed, st.FromStore, st.Deduped)
		if ss, err := e.client.StoreStats(ctx); err == nil {
			fmt.Fprintf(w, "remote store: %d hits, %d misses, %d entries\n", ss.Hits, ss.Misses, ss.Entries)
		}
	}
	if e.jsonlFile != nil {
		return e.jsonlFile.Close()
	}
	return nil
}

// Timed is one configuration's fastest timed run: the measurement
// paperfigs' scaling figure reports.
type Timed struct {
	Result      dragonfly.Result
	Cycles      int64   // cycles actually simulated: a watchdog may end a run early
	WallSeconds float64 // RunContext only; Prepare is outside the window

	// HeapBytes is the live heap after the run, measured after a forced GC
	// with the simulator still reachable — the resident cost of the network
	// state, lazily allocated buffers included.
	HeapBytes uint64
}

// CyclesPerSec is the simulated-cycle throughput of the timed run.
func (t Timed) CyclesPerSec() float64 { return float64(t.Cycles) / t.WallSeconds }

// BestOf prepares and runs cfg reps times and returns the fastest run. The
// simulation is deterministic, so repetitions only sample scheduler and
// cache noise and the minimum is the cleanest estimate. The heap probe
// (a GC, then ReadMemStats) sits outside the wall-clock window. Callers
// wanting clean numbers run one BestOf at a time.
func BestOf(ctx context.Context, cfg dragonfly.Config, reps int) (Timed, error) {
	var best Timed
	var mem runtime.MemStats
	for i := 0; i < max(reps, 1); i++ {
		sim, err := dragonfly.Prepare(cfg)
		if err != nil {
			return Timed{}, err
		}
		start := time.Now()
		res, err := sim.RunContext(ctx)
		wall := time.Since(start).Seconds()
		if err != nil {
			return Timed{}, err
		}
		runtime.GC()
		runtime.ReadMemStats(&mem)
		if i == 0 || wall < best.WallSeconds {
			best = Timed{Result: res, Cycles: sim.Cycles(), WallSeconds: wall, HeapBytes: mem.HeapAlloc}
		}
		runtime.KeepAlive(sim)
	}
	return best, nil
}
