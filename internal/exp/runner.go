package exp

import (
	"context"
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	dragonfly "repro"
)

// Options configure a campaign run. The zero value runs every point on a
// GOMAXPROCS-wide pool, one dragonfly.Runner per pool goroutine, no cache,
// no output.
type Options struct {
	// Workers bounds the number of concurrently executing points
	// (default GOMAXPROCS). This is across-point parallelism; it
	// multiplies with any Config.Workers intra-simulation parallelism,
	// so campaigns over small networks should leave Config.Workers at 1.
	Workers int

	// SeedBase, when nonzero, overwrites every point's Config.Seed with
	// a value mixed from SeedBase and the point's campaign index. Seeds
	// are assigned up front, in campaign order, so they do not depend on
	// the pool size or on which worker picks a point up. Zero keeps the
	// seeds the builders put in the configs.
	SeedBase uint64

	// Progress, when non-nil, receives one event per finished point.
	// Events are delivered serially (never concurrently).
	Progress func(Progress)

	// JSONL, when non-nil, receives one JSON line per finished point in
	// completion order (see Record). Writes are serialized.
	JSONL io.Writer

	// CanonicalJSONL switches the JSONL stream to canonical form: lines
	// are emitted in campaign order (buffered until every earlier point
	// has finished) and the volatile fields — Seconds and Cached — are
	// zeroed. Because the engine is deterministic, the resulting stream
	// is byte-identical for any worker count, any cache state, and for
	// local versus remote execution of the same campaign. On
	// cancellation the stream is a well-formed prefix: the dispatcher
	// hands points out in campaign order, so undispatched points form a
	// suffix and no emitted line ever precedes a missing one.
	CanonicalJSONL bool

	// Cache, when non-nil, is consulted before and populated after every
	// point. A hit skips the simulation entirely.
	Cache *Cache

	// Run overrides how a point is executed (benchmark harnesses time
	// the engine themselves). Default: RunContext(ctx, cfg) on the pool
	// goroutine's own dragonfly.Runner, which re-initialises one network
	// across consecutive points of the same shape. The index is the
	// point's campaign index.
	Run func(ctx context.Context, index int, p Point) (dragonfly.Result, error)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Progress is one structured progress event.
type Progress struct {
	Done    int // points finished so far, this one included
	Total   int // points in the campaign
	Outcome Outcome
}

// PointSeed derives the deterministic seed of point index under base,
// using a splitmix64 round so neighboring indices get uncorrelated seeds.
func PointSeed(base uint64, index int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Run executes every point of the campaign on the bounded pool and
// returns the outcomes in campaign order. Per-point simulation failures
// are recorded in Outcome.Err (see PointErrors); the returned error is
// reserved for campaign-level failures — ctx cancellation, JSONL write
// errors and cache store errors (a point whose simulation succeeded but
// whose result could not be cached still reports success, with its
// result). On cancellation the in-flight simulations abort at their next
// cycle check and every unexecuted point carries ctx's error.
func Run(ctx context.Context, camp Campaign, opt Options) ([]Outcome, error) {
	outs := make([]Outcome, len(camp.Points))
	for i := range outs {
		outs[i].Index = i
		outs[i].Point = camp.Points[i]
		if opt.SeedBase != 0 {
			outs[i].Point.Config.Seed = PointSeed(opt.SeedBase, i)
		}
	}
	var (
		mu        sync.Mutex // serializes progress + JSONL emission
		done      int
		finished  []bool // per-index, only allocated for canonical JSONL
		nextJSONL int    // first index not yet emitted (canonical JSONL)
		jsonlErr  error
		cacheErr  error
	)
	if opt.CanonicalJSONL {
		finished = make([]bool, len(outs))
	}
	finish := func(o *Outcome) {
		mu.Lock()
		defer mu.Unlock()
		done++
		if opt.JSONL != nil && jsonlErr == nil {
			if opt.CanonicalJSONL {
				// Flush the contiguous finished prefix in campaign order.
				finished[o.Index] = true
				for nextJSONL < len(outs) && finished[nextJSONL] {
					if jsonlErr = writeRecord(opt.JSONL, &outs[nextJSONL], true); jsonlErr != nil {
						break
					}
					nextJSONL++
				}
			} else {
				jsonlErr = writeRecord(opt.JSONL, o, false)
			}
		}
		if opt.Progress != nil {
			opt.Progress(Progress{Done: done, Total: len(outs), Outcome: *o})
		}
	}

	// A broken cache surfaces once, campaign-level; the points stand.
	putFailed := func(err error) {
		mu.Lock()
		if cacheErr == nil {
			cacheErr = err
		}
		mu.Unlock()
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := opt.workers()
	if workers > len(outs) {
		workers = len(outs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each pool goroutine is one lane: it owns one Runner, so
			// consecutive points of one network shape share an allocation.
			var lane dragonfly.Runner
			runFn := opt.Run
			if runFn == nil {
				runFn = func(ctx context.Context, _ int, p Point) (dragonfly.Result, error) {
					return lane.RunContext(ctx, p.Config)
				}
			}
			for i := range jobs {
				o := &outs[i]
				if err := ctx.Err(); err != nil {
					o.Err = err
					finish(o)
					continue
				}
				start := time.Now()
				o.Result, o.Cached, o.Err = Resolve(ctx, opt.Cache, "", o.Point.Config,
					func() (dragonfly.Result, error) { return runFn(ctx, i, o.Point) }, putFailed)
				o.Seconds = time.Since(start).Seconds()
				finish(o)
			}
		}()
	}
	next := 0
dispatch:
	for ; next < len(outs); next++ {
		select {
		case jobs <- next:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	// Points the dispatcher never handed out: mark, but emit no events —
	// the campaign is already over.
	if err := ctx.Err(); err != nil {
		for i := next; i < len(outs); i++ {
			outs[i].Err = err
		}
		return outs, errors.Join(err, jsonlErr, cacheErr)
	}
	return outs, errors.Join(jsonlErr, cacheErr)
}
