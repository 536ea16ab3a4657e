// Package srv turns internal/exp into a long-running campaign service:
// an HTTP/JSON API that accepts campaigns, executes their points on a
// shared fleet of simulation workers, serves repeated points from a
// persistent size-bounded result store (exp.Store), deduplicates
// identical points that are in flight concurrently (exp.Flights),
// streams per-point progress over SSE, and renders a plain-HTML results
// browser. Client (client.go) is the matching thin client used by the
// CLIs' -remote flag; because the engine is deterministic and points are
// seeded before submission, remote results are interchangeable with —
// and canonical JSONL streams byte-identical to — local execution.
//
// Life of a point: a submitted campaign runs on exp.Run, whose per-point
// run is Server.runPoint — in-flight dedup (exp.Flights) around
// exp.Resolve on the shared store, so the lookup → run → persist policy
// is the one every front door uses. Only a store miss reaches Resolve's
// run: one pass through the lease-based point queue
// (internal/exp/queue), where whichever puller claims the point first —
// one of the coordinator's own local sim workers, or a remote dragonsrv
// -worker process pulling over the lease API (fleet.go) — executes it.
// Worker (worker.go) is the puller side of the same contract and calls
// exp.Resolve again on its own optional store. Leases expire without
// heartbeats, so a worker can die at any moment: its points requeue with
// backoff and the campaign still completes with byte-identical results;
// points that crash enough distinct workers are quarantined instead of
// retrying forever (see the queue package for the full lifecycle).
//
// API (all JSON unless noted):
//
//	POST /api/v1/campaigns                    submit {name, points:[{series,x,config}]}
//	GET  /api/v1/campaigns                    list campaign statuses
//	GET  /api/v1/campaigns/{id}               one campaign's status
//	GET  /api/v1/campaigns/{id}/events        SSE: replay + live per-point events, then "done"
//	GET  /api/v1/campaigns/{id}/results       finished outcomes (blocks until done)
//	GET  /api/v1/campaigns/{id}/results.jsonl canonical JSONL (blocks until done)
//	POST /api/v1/leases                       claim a batch of points {worker,max,wait_ms}
//	POST /api/v1/leases/{id}/heartbeat        extend a lease (410 once expired)
//	POST /api/v1/leases/{id}/results          submit outcomes (410 discards a zombie's)
//	GET  /api/v1/store                        store occupancy, hit/miss counters, fleet stats
//	GET  /healthz                             "ok" (503 "draining" while shutting down)
//	GET  /                                    HTML browser; /campaigns/{id} per-campaign page
package srv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/exp/queue"
)

// ErrDraining is the per-point error of points the server refused to
// start because a graceful shutdown was in progress. In-flight
// simulations still finish and persist; only unstarted points carry it.
var ErrDraining = errors.New("srv: server draining, point not started")

// maxBodyBytes bounds a campaign submission body.
const maxBodyBytes = 64 << 20

// sseWriteTimeout bounds one SSE event write; a subscriber that stalls
// longer than this is detached.
const sseWriteTimeout = 30 * time.Second

// Config configures a Server.
type Config struct {
	// Store is the shared persistent result store (required).
	Store *exp.Store
	// SimWorkers bounds the coordinator's own concurrently executing
	// simulations (default GOMAXPROCS). Negative disables local
	// execution entirely: the coordinator only dispatches to remote
	// workers — the fleet-only topology.
	SimWorkers int
	// Fleet tunes the lease queue (lease duration, quarantine
	// thresholds, requeue backoff). The zero value gets the queue
	// package's production defaults.
	Fleet queue.Config
	// JSONLDir, when non-empty, makes the server mirror each campaign's
	// canonical JSONL stream to <dir>/<campaign-id>.jsonl as points
	// finish, so results survive client disconnects and drains.
	JSONLDir string
	// Log, when non-nil, receives operational log lines.
	Log *log.Logger
}

// Server is the campaign service. Create with New, expose with Handler,
// shut down with Drain.
type Server struct {
	store      *exp.Store
	simWorkers int
	jsonlDir   string
	logger     *log.Logger

	queue   *queue.Queue
	flights exp.Flights
	localWG sync.WaitGroup // local puller goroutines

	draining  atomic.Bool
	runCtx    context.Context // canceled only when a drain deadline forces abort
	runCancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*campaign
	order     []string // submission order, for listings
	nextID    int
	wg        sync.WaitGroup // running campaign executors

	// runSim, when non-nil, replaces a local puller's own Runner; tests
	// stub it to control timing.
	runSim func(ctx context.Context, cfg dragonfly.Config) (dragonfly.Result, error)
}

// New creates a Server. The JSONL directory, when configured, is
// created if needed.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("srv: Config.Store is required")
	}
	workers := cfg.SimWorkers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 0 {
		workers = 0 // fleet-only: no local pullers
	}
	if cfg.JSONLDir != "" {
		if err := os.MkdirAll(cfg.JSONLDir, 0o755); err != nil {
			return nil, fmt.Errorf("srv: jsonl dir: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:      cfg.Store,
		simWorkers: workers,
		jsonlDir:   cfg.JSONLDir,
		logger:     cfg.Log,
		queue:      queue.New(cfg.Fleet),
		runCtx:     ctx,
		runCancel:  cancel,
		campaigns:  make(map[string]*campaign),
	}
	for i := 0; i < workers; i++ {
		s.localWG.Add(1)
		go s.localPuller()
	}
	return s, nil
}

// localPuller is one of the coordinator's own simulation workers: it
// claims points off the same queue remote workers pull from, so local
// capacity and the fleet share one dispatch order and never duplicate
// work. Local leases do not expire — the holder cannot outlive the
// queue — so no heartbeats are needed.
func (s *Server) localPuller() {
	defer s.localWG.Done()
	// One lane, one Runner: consecutive points of one network shape share
	// an allocation. When nothing is ready the network is released before
	// blocking, so an idle coordinator does not sit on a fabric.
	var lane dragonfly.Runner
	for {
		l, err := s.queue.Claim("local", 1, true)
		if err == nil && l == nil {
			lane.Release()
			l, err = s.queue.WaitClaim(s.runCtx, "local", 1, time.Hour, true)
		}
		if err != nil {
			return // draining or shut down
		}
		if l == nil {
			continue
		}
		for _, t := range l.Tasks {
			run := lane.RunContext
			if s.runSim != nil {
				run = s.runSim
			}
			res, err := run(s.runCtx, t.Config)
			s.queue.Complete(l.ID, t.ID, queue.Outcome{Result: res, Err: err}) //nolint:errcheck // local leases cannot expire
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// Drain gracefully shuts the execution side down: new submissions are
// rejected with 503, no new leases are issued (remote claims get 503,
// local pullers stop), queued points that have not started simulating
// fail with ErrDraining, and in-flight work — local simulations and
// points leased to remote workers — is collected: workers can still
// heartbeat and submit, and results persist to the store. A leased
// point whose worker dies during the drain fails with ErrDraining when
// its lease expires instead of requeueing. Drain returns when every
// accepted campaign has finished, or — if ctx expires first — aborts
// the remaining simulations and returns ctx's error. Safe to call once;
// the HTTP listener itself is the caller's to close afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Drain(ErrDraining)
	// Barrier: a submission that passed the draining check while holding
	// s.mu has already registered with wg by the time we acquire it.
	s.mu.Lock()
	n := len(s.order)
	s.mu.Unlock()
	s.logf("draining: waiting on campaigns (%d accepted total)", n)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.runCancel() // in-flight simulations abort at their next cycle check
		<-done
		err = ctx.Err()
	}
	s.runCancel()
	s.localWG.Wait()
	s.queue.Close()
	return err
}

// Close aborts everything immediately. Tests use it; production drains.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(ctx) //nolint:errcheck // a drain with no patience is the abort
}

// campaign is one accepted campaign and its execution state.
type campaign struct {
	id      string
	name    string
	created time.Time
	points  []exp.Point

	mu   sync.Mutex
	cond *sync.Cond // broadcast on every new record and on finish

	recs     []exp.Outcome // completion order, as SSE replays them (Cached/Seconds live)
	served   []bool        // per-index: result arrived without its own sim
	outs     []exp.Outcome // campaign order, set on finish
	executed int           // simulations this campaign ran
	fromStore,
	deduped int
	finished bool
	errMsg   string // campaign-level error, if any
}

// Status is a campaign status snapshot, as served by the API.
type Status struct {
	ID        string    `json:"id"`
	Name      string    `json:"name"`
	Created   time.Time `json:"created"`
	Total     int       `json:"total"`
	Done      int       `json:"done"`
	Executed  int       `json:"executed"`   // simulations run for this campaign
	FromStore int       `json:"from_store"` // points served from the persistent store
	Deduped   int       `json:"deduped"`    // points that joined another caller's in-flight sim
	Finished  bool      `json:"finished"`
	Error     string    `json:"error,omitempty"`
}

func (c *campaign) statusLocked() Status {
	return Status{
		ID:        c.id,
		Name:      c.name,
		Created:   c.created,
		Total:     len(c.points),
		Done:      len(c.recs),
		Executed:  c.executed,
		FromStore: c.fromStore,
		Deduped:   c.deduped,
		Finished:  c.finished,
		Error:     c.errMsg,
	}
}

func (c *campaign) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked()
}

// record appends one finished point's event and wakes SSE streams.
// Called serially by exp.Run's progress path.
func (c *campaign) record(o exp.Outcome) {
	c.mu.Lock()
	o.Cached = o.Cached || c.served[o.Index]
	c.recs = append(c.recs, o)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// finish publishes the final outcomes and wakes everyone waiting.
func (c *campaign) finish(outs []exp.Outcome, err error) {
	c.mu.Lock()
	for i := range outs {
		outs[i].Cached = outs[i].Cached || c.served[i]
	}
	c.outs = outs
	c.finished = true
	if err != nil {
		c.errMsg = err.Error()
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// wakeOn broadcasts the campaign's condition when ctx ends, so a waiter
// parked in cond.Wait notices its caller went away. The returned stop
// releases the hook.
func (c *campaign) wakeOn(ctx context.Context) (stop func() bool) {
	return context.AfterFunc(ctx, func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
}

// waitFinished blocks until the campaign finished or ctx expired.
func (c *campaign) waitFinished(ctx context.Context) ([]exp.Outcome, bool) {
	defer c.wakeOn(ctx)()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !c.finished {
		if ctx.Err() != nil {
			return nil, false
		}
		c.cond.Wait()
	}
	return c.outs, true
}

// campaignPool bounds each campaign executor's in-flight points. These
// goroutines only wait on the queue (the actual simulation concurrency
// is bounded by the local pullers plus whatever the fleet claims), so
// the pool is wide enough to keep a fleet of remote workers fed.
const campaignPool = 128

// start launches the campaign executor.
func (s *Server) start(c *campaign) {
	go func() {
		defer s.wg.Done()
		eopt := exp.Options{
			Workers:        campaignPool,
			CanonicalJSONL: true,
			Run: func(_ context.Context, i int, p exp.Point) (dragonfly.Result, error) {
				return s.runPoint(c, i, p)
			},
			Progress: func(pr exp.Progress) { c.record(pr.Outcome) },
		}
		var jsonl *os.File
		if s.jsonlDir != "" {
			f, err := os.Create(filepath.Join(s.jsonlDir, c.id+".jsonl"))
			if err != nil {
				s.logf("campaign %s: jsonl: %v", c.id, err)
			} else {
				jsonl = f
				eopt.JSONL = f
			}
		}
		outs, err := exp.Run(s.runCtx, exp.Campaign{Name: c.name, Points: c.points}, eopt)
		if jsonl != nil {
			if cerr := jsonl.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		c.finish(outs, err)
		st := c.status()
		s.logf("campaign %s (%s) finished: %d points, %d simulated, %d from store, %d deduped",
			c.id, c.name, st.Total, st.Executed, st.FromStore, st.Deduped)
	}()
}

// runPoint resolves one point: in-flight dedup around exp.Resolve, whose
// run — reached only when the store misses — is one pass through the
// lease queue, where a local puller or a remote worker executes the
// point. The store lookup happens inside the flight so concurrent
// identical points cost one lookup and the hit/miss counters stay exact.
func (s *Server) runPoint(c *campaign, idx int, p exp.Point) (dragonfly.Result, error) {
	key := s.store.Key(p.Config)
	var ranSim bool
	res, leader, err := s.flights.Do(s.runCtx, key, func() (dragonfly.Result, error) {
		res, _, err := exp.Resolve(s.runCtx, s.store, key, p.Config, func() (dragonfly.Result, error) {
			if s.draining.Load() {
				return dragonfly.Result{}, ErrDraining
			}
			tk, err := s.queue.Enqueue(key, p.Config)
			if err != nil { // drain raced the check above
				return dragonfly.Result{}, ErrDraining
			}
			select {
			case out := <-tk.Done:
				// A point drained out of the queue never started simulating;
				// everything else — success, sim error, quarantine — did.
				ranSim = !errors.Is(out.Err, ErrDraining)
				return out.Result, out.Err
			case <-s.runCtx.Done():
				return dragonfly.Result{}, s.runCtx.Err()
			}
		}, func(perr error) { s.logf("store put %s: %v", key[:12], perr) })
		return res, err
	})
	c.mu.Lock()
	switch {
	case leader && ranSim:
		c.executed++
	case err == nil:
		if leader {
			c.fromStore++
		} else {
			c.deduped++
		}
		c.served[idx] = true
	}
	c.mu.Unlock()
	return res, err
}

// submit registers and starts a campaign. Returns nil while draining.
func (s *Server) submit(name string, points []exp.Point) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return nil
	}
	s.nextID++
	c := &campaign{
		id:      fmt.Sprintf("c%04d", s.nextID),
		name:    name,
		created: time.Now().UTC(),
		points:  points,
		served:  make([]bool, len(points)),
	}
	c.cond = sync.NewCond(&c.mu)
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	s.wg.Add(1) // inside s.mu: pairs with the barrier in Drain
	s.start(c)
	return c
}

func (s *Server) campaign(id string) *campaign {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// statuses snapshots every campaign in submission order.
func (s *Server) statuses() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	statuses := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		statuses = append(statuses, s.campaigns[id].status())
	}
	return statuses
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results", s.handleResults)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/results.jsonl", s.handleResultsJSONL)
	mux.HandleFunc("POST /api/v1/leases", s.handleClaim)
	mux.HandleFunc("POST /api/v1/leases/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /api/v1/leases/{id}/results", s.handleLeaseResults)
	mux.HandleFunc("GET /api/v1/store", s.handleStore)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /campaigns/{id}", s.handleCampaignPage)
	return mux
}

// Wire types. A point on the wire is exp.Point's own JSON layout.

type submitRequest struct {
	Name   string      `json:"name"`
	Points []exp.Point `json:"points"`
}

type submitResponse struct {
	ID    string `json:"id"`
	Total int    `json:"total"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req submitRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode campaign: %v", err)
		return
	}
	if len(req.Points) == 0 {
		httpError(w, http.StatusBadRequest, "campaign has no points")
		return
	}
	for i := range req.Points {
		if err := req.Points[i].Config.Validate(); err != nil {
			httpError(w, http.StatusBadRequest, "point %d: %v", i, err)
			return
		}
	}
	c := s.submit(req.Name, req.Points)
	if c == nil {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.logf("campaign %s (%s): accepted, %d points", c.id, c.name, len(req.Points))
	writeJSON(w, http.StatusCreated, submitResponse{ID: c.id, Total: len(req.Points)})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statuses())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	writeJSON(w, http.StatusOK, c.status())
}

// handleEvents streams SSE: every already-recorded point is replayed
// first (so reconnecting clients can resume idempotently by index),
// then live events, then one "done" event carrying the final status.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ctx := r.Context()
	defer c.wakeOn(ctx)()

	// Bound every event write so a wedged subscriber (accepted the TCP
	// connection, never reads) detaches promptly instead of pinning this
	// handler — and the campaign's broadcast fan-out — forever.
	rc := http.NewResponseController(w)
	emit := func(event string, v any) error {
		rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout)) //nolint:errcheck // unsupported transport: fall back to unbounded writes
		if err := writeEvent(w, event, v); err != nil {
			return err
		}
		fl.Flush()
		return nil
	}

	next := 0
	c.mu.Lock()
	for {
		for next < len(c.recs) {
			// The record points into c.recs; entries are never modified
			// once appended, so it stays valid outside the lock.
			rec := exp.NewRecord(&c.recs[next], false)
			next++
			c.mu.Unlock()
			if err := emit("point", rec); err != nil {
				return
			}
			c.mu.Lock()
		}
		if c.finished {
			break
		}
		if ctx.Err() != nil {
			c.mu.Unlock()
			return
		}
		c.cond.Wait()
	}
	st := c.statusLocked()
	c.mu.Unlock()
	emit("done", st) //nolint:errcheck // stream is ending either way
}

func writeEvent(w io.Writer, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	outs, ok := c.waitFinished(r.Context())
	if !ok {
		return // client went away
	}
	recs := make([]exp.Record, len(outs))
	for i := range outs {
		recs[i] = exp.NewRecord(&outs[i], false)
	}
	writeJSON(w, http.StatusOK, recs)
}

func (s *Server) handleResultsJSONL(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	outs, ok := c.waitFinished(r.Context())
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	for i := range outs {
		if err := exp.WriteCanonicalRecord(w, &outs[i]); err != nil {
			return
		}
	}
}

// storeResponse is GET /api/v1/store's payload: the store counters
// (inline, for pre-fleet clients) plus the fleet snapshot.
type storeResponse struct {
	exp.StoreStats
	Fleet queue.FleetStats `json:"fleet"`
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, storeResponse{
		StoreStats: s.store.Stats(),
		Fleet:      s.queue.Stats(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n") //nolint:errcheck
		return
	}
	io.WriteString(w, "ok\n") //nolint:errcheck
}
