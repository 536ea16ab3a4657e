package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/exp/queue"
	"repro/internal/exp/srv"
)

// warmPasses is how many times a campaign is resubmitted after its cold
// pass; every point of a warm pass must be served without simulating.
const warmPasses = 3

// tempDir makes a fresh directory under the benchmark's out directory, so
// the benchmark never writes outside its checkout.
func tempDir(tag string) (string, error) {
	out, err := outDir()
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(out, tag+"-*")
}

// accountCampaign folds a finished pass's outcomes into r. Only points
// that were simulated count toward cycles, phits and latency samples.
func accountCampaign(r *rep, outs []exp.Outcome) {
	r.Points = len(outs)
	for i := range outs {
		o := &outs[i]
		if o.Cached && o.Err == nil {
			continue
		}
		r.account(o.Point, o.Result, o.Err, o.Point.Config.Warmup+o.Point.Config.Measure)
		r.PointMS = append(r.PointMS, o.Seconds*1e3)
	}
}

func (r *rep) expect(ok bool, format string, args ...any) {
	if !ok {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// localDoor runs a campaign through exp.Run with a fresh result cache.
type localDoor struct {
	pts   []exp.Point
	dir   string
	cache *exp.Cache
	rec   *recorder // nil unless traced
}

func openLocal(pts []exp.Point, rec *recorder) (*localDoor, error) {
	dir, err := tempDir("cache")
	if err != nil {
		return nil, err
	}
	cache, err := exp.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	return &localDoor{pts: pts, dir: dir, cache: cache, rec: rec}, nil
}

func (d *localDoor) close() error { return os.RemoveAll(d.dir) }

// coldAndWarm is the timed repetition both campaign doors share: one cold
// pass, then warmPasses resubmissions whose canonical JSONL must equal the
// cold pass's byte for byte. submit pushes the campaign through the door
// (pass 0 is the cold one); verify, outside the timed walls, holds the pass
// to the door's own exact expectations.
func coldAndWarm(r *rep, submit func(pass int, jsonl *bytes.Buffer) ([]exp.Outcome, error), verify func(pass int, outs []exp.Outcome)) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var cold bytes.Buffer
	start := time.Now()
	outs, err := submit(0, &cold)
	r.Wall = time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	accountCampaign(r, outs)
	verify(0, outs)
	r.Digests = jsonlDigests(cold.Bytes())
	for pass := 1; pass <= warmPasses; pass++ {
		var warm bytes.Buffer
		start := time.Now()
		outs, err := submit(pass, &warm)
		r.WarmWall += time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("warm pass %d: %w", pass, err)
		}
		r.WarmPts += len(outs)
		verify(pass, outs)
		r.expect(bytes.Equal(warm.Bytes(), cold.Bytes()), "warm pass %d: JSONL differs from the cold pass", pass)
	}
	runtime.ReadMemStats(&ms1)
	r.Alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return nil
}

// traceInto makes exp.Run record spans: Options.Run becomes
// dragonfly.RunContext with a span around each half, and Progress — which
// knows how long exp.Run spent on the point — adds the orchestrator's
// exp.point span and makes it the parent of the two.
func (d *localDoor) traceInto(opt *exp.Options) {
	rec := d.rec
	kids := make([][2]int32, len(d.pts))
	opt.Run = func(ctx context.Context, i int, p exp.Point) (dragonfly.Result, error) {
		s := rec.begin("prepare", -1, i)
		sim, err := dragonfly.Prepare(p.Config)
		rec.end(s)
		kids[i] = [2]int32{s, -1}
		if err != nil {
			return dragonfly.Result{}, err
		}
		t := rec.begin("step", -1, i)
		res, err := sim.RunContext(ctx)
		rec.end(t)
		kids[i][1] = t
		return res, err
	}
	opt.Progress = func(pr exp.Progress) {
		o := pr.Outcome
		if o.Cached {
			return
		}
		end := int64(time.Since(rec.epoch))
		id := rec.add("exp.point", end-int64(o.Seconds*1e9), end, -1, o.Index)
		rec.adopt(kids[o.Index][0], id)
		rec.adopt(kids[o.Index][1], id)
	}
}

// pass is one timed repetition: a cold pass into the empty cache, then
// warmPasses resubmissions.
func (d *localDoor) pass(ctx context.Context) (rep, error) {
	var r rep
	camp := exp.Campaign{Name: "tiny", Points: d.pts}
	distinct, repeats := campaignCounts(d.pts)
	err := coldAndWarm(&r,
		func(pass int, jsonl *bytes.Buffer) ([]exp.Outcome, error) {
			opt := exp.Options{Workers: lanes(), Cache: d.cache, JSONL: jsonl, CanonicalJSONL: true}
			if pass == 0 && d.rec != nil {
				d.traceInto(&opt)
			}
			return exp.Run(ctx, camp, opt)
		},
		func(pass int, outs []exp.Outcome) {
			if pass == 0 {
				hits, misses := d.cache.Stats()
				r.expect(hits == int64(repeats) && misses == int64(distinct),
					"cold pass: cache hits/misses %d/%d, want %d/%d", hits, misses, repeats, distinct)
				return
			}
			served := 0
			for i := range outs {
				if outs[i].Cached {
					served++
				}
			}
			r.expect(served == len(outs), "warm pass %d: %d of %d points served from the cache", pass, served, len(outs))
		})
	return r, err
}

// fleetDoor runs a campaign through srv.Client against a coordinator
// behind a loopback HTTP server. With remote workers the coordinator
// simulates nothing itself (the fleet topology); with none, its own
// SimWorkers do (dragonsrv-local, the third front door).
type fleetDoor struct {
	pts     []exp.Point
	dir     string
	store   *exp.Store
	server  *srv.Server
	ts      *httptest.Server
	client  *srv.Client
	workers []*srv.Worker
	stop    context.CancelFunc
	wg      sync.WaitGroup
	mw      *middleware // nil unless traced
	drained bool

	counters fleetCounters // of the last pass
}

// openFleet starts the service. remote is the number of srv.Workers
// (Sims: 1 each); with remote == 0 the coordinator gets L local pullers.
func openFleet(ctx context.Context, pts []exp.Point, remote int, rec *recorder) (*fleetDoor, error) {
	dir, err := tempDir("store")
	if err != nil {
		return nil, err
	}
	d := &fleetDoor{pts: pts, dir: dir}
	if d.store, err = exp.OpenStore(dir, 0); err != nil {
		return nil, err
	}
	simWorkers := -1
	if remote == 0 {
		simWorkers = lanes()
	}
	if d.server, err = srv.New(srv.Config{Store: d.store, SimWorkers: simWorkers}); err != nil {
		return nil, err
	}
	handler := d.server.Handler()
	if rec != nil {
		d.mw = &middleware{next: handler, rec: rec}
		handler = d.mw
	}
	d.ts = httptest.NewServer(handler)
	d.client = srv.NewClient(d.ts.URL)
	wctx, stop := context.WithCancel(context.Background())
	d.stop = stop
	for i := 0; i < remote; i++ {
		w, err := srv.NewWorker(srv.WorkerConfig{
			Coordinator: d.ts.URL, Name: fmt.Sprintf("w%d", i), Sims: 1, Batch: 4,
		})
		if err != nil {
			d.close() //nolint:errcheck // already failing
			return nil, err
		}
		d.workers = append(d.workers, w)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			w.Run(wctx) //nolint:errcheck // returns ctx's error on stop, by contract
		}()
	}
	if err := d.client.Health(ctx); err != nil {
		d.close() //nolint:errcheck // already failing
		return nil, err
	}
	return d, nil
}

// drain stops the workers, then drains the coordinator, and returns how
// long the drain took.
func (d *fleetDoor) drain() (time.Duration, error) {
	d.stop()
	d.wg.Wait()
	d.drained = true
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	err := d.server.Drain(ctx)
	return time.Since(start), err
}

func (d *fleetDoor) close() error {
	var err error
	if !d.drained {
		_, err = d.drain()
	}
	d.ts.Close()
	if rmErr := os.RemoveAll(d.dir); err == nil {
		err = rmErr
	}
	return err
}

// fleetCounters is what a fleet pass reads off the service's public
// statistics after it finishes.
type fleetCounters struct {
	Executed, Served int // summed over the passes of a repetition
	Store            exp.StoreStats
	Fleet            queue.FleetStats
	FirstRecord      time.Duration // submit -> first Progress, cold pass
	CampaignID       string        // of the cold pass
}

// pass is one timed repetition: cold pass, then warmPasses resubmissions.
func (d *fleetDoor) pass(ctx context.Context) (rep, error) {
	var r rep
	fc := &d.counters
	*fc = fleetCounters{}
	camp := exp.Campaign{Name: "tiny", Points: d.pts}
	distinct, repeats := campaignCounts(d.pts)
	err := coldAndWarm(&r,
		func(pass int, jsonl *bytes.Buffer) ([]exp.Outcome, error) {
			opt := exp.Options{JSONL: jsonl}
			if start := time.Now(); pass == 0 && d.mw != nil {
				opt.Progress = func(pr exp.Progress) {
					if pr.Done == 1 {
						fc.FirstRecord = time.Since(start)
					}
				}
			}
			return d.client.Run(ctx, camp, opt)
		},
		func(pass int, outs []exp.Outcome) {
			st := d.client.LastStatus()
			served := st.FromStore + st.Deduped
			fc.Executed += st.Executed
			fc.Served += served
			if pass == 0 {
				fc.CampaignID = st.ID
				r.expect(st.Executed == distinct && served == repeats,
					"cold pass: executed %d, served %d (store %d + dedup %d), want %d and %d",
					st.Executed, served, st.FromStore, st.Deduped, distinct, repeats)
				return
			}
			r.expect(st.Executed == 0 && served == len(outs),
				"warm pass %d: executed %d, served %d of %d", pass, st.Executed, served, len(outs))
		})
	if err != nil {
		return r, err
	}

	if fc.Store, err = d.client.StoreStats(ctx); err != nil {
		return r, err
	}
	if fc.Fleet, err = d.client.FleetStats(ctx); err != nil {
		return r, err
	}
	if len(d.workers) > 0 {
		var executed int64
		for _, w := range d.workers {
			executed += w.Executed()
		}
		r.expect(executed == int64(distinct), "workers executed %d simulations, want %d", executed, distinct)
	}
	// Nothing crashes in this benchmark: a requeue or an expired lease
	// means a worker stalled, and the timing of the run is void.
	r.expect(fc.Fleet.Requeues == 0 && fc.Fleet.ExpiredLeases == 0 && fc.Fleet.LateDiscarded == 0,
		"fleet: %d requeues, %d expired leases, %d late results", fc.Fleet.Requeues, fc.Fleet.ExpiredLeases, fc.Fleet.LateDiscarded)
	return r, nil
}

// fetchResults downloads the finished campaign's canonical JSONL.
func (d *fleetDoor) fetchResults(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+"/api/v1/campaigns/"+id+"/results.jsonl", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("results.jsonl: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// middleware wraps Server.Handler() on traced runs: one span and one
// sample per request, classified by route.
type middleware struct {
	next http.Handler
	rec  *recorder

	mu                sync.Mutex
	ms                map[string][]float64 // route -> request durations
	bytesIn, bytesOut int64
}

// route names the API call a request is, in the metric names' terms.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/api/v1/leases":
		return "claim"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/results"):
		return "results"
	case r.Method == http.MethodPost && p == "/api/v1/campaigns":
		return "submit"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/results.jsonl"):
		return "fetch"
	}
	return "other"
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := route(r)
	cw := &countingWriter{ResponseWriter: w}
	s := m.rec.begin("http."+name, -1, -1)
	start := time.Now()
	m.next.ServeHTTP(cw, r)
	d := time.Since(start)
	m.rec.end(s)
	m.mu.Lock()
	if m.ms == nil {
		m.ms = make(map[string][]float64)
	}
	m.ms[name] = append(m.ms[name], float64(d)/1e6)
	if r.ContentLength > 0 {
		m.bytesIn += r.ContentLength
	}
	m.bytesOut += cw.n.Load()
	m.mu.Unlock()
}

// snapshot returns the per-route samples and byte totals so far.
func (m *middleware) snapshot() (ms map[string][]float64, in, out int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms = make(map[string][]float64, len(m.ms))
	for k, v := range m.ms {
		ms[k] = append([]float64(nil), v...)
	}
	return ms, m.bytesIn, m.bytesOut
}

// countingWriter counts response bytes and stays transparent to the SSE
// handler, which needs http.Flusher and a ResponseController.
type countingWriter struct {
	http.ResponseWriter
	n atomic.Int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }

// rawPool runs the campaign's points on a plain pool of L goroutines,
// each doing Prepare + RunContext: what the simulations cost with no
// orchestration at all. Only the distinct points are timed (they are the
// simulations a cold pass runs); the repeats run afterwards, untimed, so
// the pool's canonical JSONL can be compared byte for byte — which also
// runs them at Workers: 2 for real.
func rawPool(ctx context.Context, pts []exp.Point) (wall float64, stepNS int64, jsonl []byte, err error) {
	distinct, _ := campaignCounts(pts)
	results := make([]dragonfly.Result, len(pts))
	errs := make([]error, len(pts))
	var steps atomic.Int64
	run := func(lo, hi int) {
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for l := 0; l < lanes(); l++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= hi {
						return
					}
					sim, err := dragonfly.Prepare(pts[i].Config)
					if err == nil {
						t0 := time.Now()
						results[i], err = sim.RunContext(ctx)
						steps.Add(int64(time.Since(t0)))
					}
					errs[i] = err
				}
			}()
		}
		wg.Wait()
	}
	start := time.Now()
	run(0, distinct)
	wall = time.Since(start).Seconds()
	run(distinct, len(pts))

	var buf bytes.Buffer
	for i := range pts {
		o := exp.Outcome{Index: i, Point: pts[i], Result: results[i], Err: errs[i]}
		if err := exp.WriteCanonicalRecord(&buf, &o); err != nil {
			return 0, 0, nil, err
		}
	}
	return wall, steps.Load(), buf.Bytes(), nil
}

// runOverhead pushes the points through exp.Run with a no-op point
// function, no cache, canonical JSONL into memory: the orchestrator's own
// cost per point.
func runOverhead(ctx context.Context, pts []exp.Point) (perPointUS float64, err error) {
	canned, err := dragonfly.RunContext(ctx, pts[0].Config)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = exp.Run(ctx, exp.Campaign{Name: "noop", Points: pts}, exp.Options{
		Workers: lanes(), JSONL: io.Discard, CanonicalJSONL: true,
		Run: func(context.Context, int, exp.Point) (dragonfly.Result, error) { return canned, nil },
	})
	return float64(time.Since(start)) / 1e3 / float64(len(pts)), err
}
