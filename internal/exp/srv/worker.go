package srv

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/exp/queue"
)

// Worker is the puller side of the fleet protocol: it claims leases
// from a coordinator (POST /api/v1/leases), executes the points through
// the deterministic engine with an optional local result store, streams
// each outcome back as it finishes, and heartbeats every held lease.
// Per-point seeding happens before campaign submission, so results are
// byte-identical no matter which worker — or the coordinator itself —
// runs a point.
//
// The worker is built to outlive the coordinator: claim failures
// (unreachable, restarting, draining 503) back off with jitter and
// rejoin; a 410 on heartbeat or submit means the lease is gone (the
// work was requeued or finished elsewhere), so the worker drops the
// lease's remaining points and claims afresh. Run only returns when its
// context is canceled.
type Worker struct {
	coord *Client // the coordinator, as this worker's HTTP peer
	name  string
	store *exp.Store
	sims  int
	batch int
	poll  time.Duration
	log   *log.Logger

	executed atomic.Int64 // simulations actually run (store hits excluded)

	// runSim, when non-nil, replaces the pull loops' own Runners; tests
	// stub it to inject crashes and stalls.
	runSim func(ctx context.Context, cfg dragonfly.Config) (dragonfly.Result, error)
}

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Name identifies this worker in leases and fleet stats (required).
	// Distinct workers must use distinct names: the poison-point
	// quarantine counts distinct crashed workers by name.
	Name string
	// Store, when non-nil, is the worker's local result store: leased
	// points are served from it without re-simulating, and fresh results
	// persist to it.
	Store *exp.Store
	// Sims bounds concurrently executing simulations (default
	// GOMAXPROCS). Each slot runs its own claim-execute loop.
	Sims int
	// Batch is the maximum points claimed per lease (default 4).
	Batch int
	// Poll is the long-poll wait for an idle claim (default 15s; the
	// coordinator caps it at 30s).
	Poll time.Duration
	// Log, when non-nil, receives operational log lines.
	Log *log.Logger
}

// NewWorker creates a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("srv: WorkerConfig.Coordinator is required")
	}
	if cfg.Name == "" {
		return nil, fmt.Errorf("srv: WorkerConfig.Name is required")
	}
	w := &Worker{
		coord: NewClient(cfg.Coordinator),
		name:  cfg.Name,
		store: cfg.Store,
		sims:  cfg.Sims,
		batch: cfg.Batch,
		poll:  cfg.Poll,
		log:   cfg.Log,
	}
	if w.sims <= 0 {
		w.sims = runtime.GOMAXPROCS(0)
	}
	if w.batch <= 0 {
		w.batch = 4
	}
	if w.poll <= 0 {
		w.poll = 15 * time.Second
	}
	return w, nil
}

// Executed reports how many simulations this worker has run (local
// store hits excluded).
func (wk *Worker) Executed() int64 { return wk.executed.Load() }

func (wk *Worker) logf(format string, args ...any) {
	if wk.log != nil {
		wk.log.Printf(format, args...)
	}
}

// Run claims and executes leases until ctx is canceled; it never
// returns early on coordinator failure.
func (wk *Worker) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for i := 0; i < wk.sims; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.pull(ctx)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// pull is one claim-execute loop: one lane, which owns one Runner, so
// consecutive leased points of one network shape share an allocation.
func (wk *Worker) pull(ctx context.Context) {
	var lane dragonfly.Runner
	fails := 0
	for ctx.Err() == nil {
		var grant LeaseGrant
		_, err := wk.coord.requestJSON(ctx, http.MethodPost, "/api/v1/leases",
			claimRequest{Worker: wk.name, Max: wk.batch, WaitMS: int(wk.poll / time.Millisecond)},
			&grant)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			// Coordinator unreachable, restarting, or draining: back off
			// and rejoin. The delay is jittered so a fleet does not
			// stampede a coordinator that just came back.
			lane.Release()
			fails++
			wk.logf("claim failed (attempt %d): %v", fails, err)
			if !sleepCtx(ctx, queue.Backoff(fails-1, retryBackoff, retryCap)) {
				return
			}
			continue
		}
		fails = 0
		if grant.ID == "" {
			// The long poll found no work: ask again, but do not sit on
			// a fabric (an h=16 one is gigabytes) while idle.
			lane.Release()
			continue
		}
		wk.execute(ctx, &lane, grant)
	}
}

// execute runs one lease's points, submitting each outcome as it
// finishes. A lost lease (410 anywhere) abandons the rest: the
// coordinator has already requeued them.
func (wk *Worker) execute(ctx context.Context, lane *dragonfly.Runner, g LeaseGrant) {
	run := lane.RunContext
	if wk.runSim != nil {
		run = wk.runSim
	}
	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	go wk.heartbeat(lctx, cancel, g)

	for _, t := range g.Points {
		if lctx.Err() != nil {
			return
		}
		// The store key is computed locally (Resolve, empty key) — the
		// same content hash the coordinator uses, but never trusted off
		// the wire.
		res, hit, err := exp.Resolve(lctx, wk.store, "", t.Config,
			func() (dragonfly.Result, error) { return run(lctx, t.Config) },
			func(perr error) { wk.logf("store put: %v", perr) })
		if lctx.Err() != nil {
			return // lease lost or shutting down mid-sim: report nothing
		}
		tr := TaskResult{Task: t.ID}
		if err != nil {
			tr.Error = err.Error()
		} else {
			tr.Result = &res
			if !hit {
				wk.executed.Add(1)
			}
		}
		if !wk.submit(lctx, g.ID, tr) {
			return
		}
	}
}

// heartbeat extends the lease at a third of its lifetime until the
// lease context ends; a 410 means the lease expired (the coordinator
// requeued the work), so execution is canceled.
func (wk *Worker) heartbeat(ctx context.Context, cancel context.CancelFunc, g LeaseGrant) {
	iv := time.Duration(g.LeaseSeconds * float64(time.Second) / 3)
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			status, err := wk.coord.requestJSON(ctx, http.MethodPost, "/api/v1/leases/"+g.ID+"/heartbeat", struct{}{}, nil)
			if status == http.StatusGone {
				wk.logf("lease %s: expired under us, abandoning", g.ID)
				cancel()
				return
			}
			if err != nil && ctx.Err() == nil {
				// Transient: the next tick retries; if the coordinator is
				// really gone the lease expires and the work requeues.
				wk.logf("lease %s: heartbeat: %v", g.ID, err)
			}
		}
	}
}

// submit streams one outcome back, retrying transient failures while
// the lease is alive. False means the lease is finished: gone (410,
// work requeued or done elsewhere) or the coordinator rejected or kept
// refusing the submission — in every case the right move is to stop
// this lease and claim a new one.
func (wk *Worker) submit(ctx context.Context, leaseID string, tr TaskResult) bool {
	status, err := wk.coord.doJSON(ctx, http.MethodPost, "/api/v1/leases/"+leaseID+"/results",
		resultsRequest{Results: []TaskResult{tr}}, nil)
	switch {
	case err == nil:
		return true
	case status == http.StatusGone:
		wk.logf("lease %s: gone, result for %s discarded", leaseID, tr.Task)
	default: // rejected or unreachable for good: the lease expires, the work requeues
		wk.logf("lease %s: submitting %s failed: %v", leaseID, tr.Task, err)
	}
	return false
}
