package srv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
)

// tinyCampaign is a fast real-simulation campaign: h=2, two mechanisms,
// two loads.
func tinyCampaign() exp.Campaign {
	base := dragonfly.PaperVCT(2)
	base.LatLocal, base.LatGlobal = 4, 16
	base.Warmup, base.Measure = 400, 800
	base.Seed = 7
	points := exp.NewMatrix(base).
		Mechanisms(dragonfly.Minimal, dragonfly.RLM).
		Loads(0.1, 0.4).
		Points()
	return exp.Campaign{Name: "tiny", Points: points}
}

type testServer struct {
	srv    *Server
	client *Client
	http   *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	if cfg.Store == nil {
		store, err := exp.OpenStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		hs.Close()
	})
	return &testServer{srv: s, client: NewClient(hs.URL), http: hs}
}

// TestRemoteMatchesLocal is the tentpole acceptance check: a campaign
// run through the server produces the same outcomes — and byte-identical
// canonical JSONL — as exp.Run in-process, and a warm resubmission of
// the identical campaign executes zero simulations.
func TestRemoteMatchesLocal(t *testing.T) {
	camp := tinyCampaign()

	var localJSONL bytes.Buffer
	local, err := exp.Run(context.Background(), camp, exp.Options{
		Workers: 2, SeedBase: 42, JSONL: &localJSONL, CanonicalJSONL: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t, Config{SimWorkers: 2})
	var remoteJSONL bytes.Buffer
	var progress int
	remote, err := ts.client.Run(context.Background(), camp, exp.Options{
		SeedBase: 42,
		JSONL:    &remoteJSONL,
		Progress: func(pr exp.Progress) {
			progress++
			if pr.Done != progress || pr.Total != len(camp.Points) {
				t.Errorf("progress event %d: done=%d total=%d", progress, pr.Done, pr.Total)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(localJSONL.Bytes(), remoteJSONL.Bytes()) {
		t.Fatalf("remote canonical JSONL differs from local:\nlocal:  %s\nremote: %s",
			localJSONL.String(), remoteJSONL.String())
	}
	if progress != len(camp.Points) {
		t.Fatalf("%d progress events, want %d", progress, len(camp.Points))
	}
	for i := range local {
		if remote[i].Err != nil {
			t.Fatalf("remote point %d: %v", i, remote[i].Err)
		}
		if !reflect.DeepEqual(local[i].Result, remote[i].Result) {
			t.Fatalf("point %d result diverges between local and remote", i)
		}
		if local[i].Point.Config.Seed != remote[i].Point.Config.Seed {
			t.Fatalf("point %d seeds diverge", i)
		}
	}
	st := ts.client.LastStatus()
	if st.Executed != len(camp.Points) || st.FromStore != 0 {
		t.Fatalf("cold run status: %+v", st)
	}

	// Warm resubmission: identical campaign, zero simulations.
	var warmJSONL bytes.Buffer
	warm, err := ts.client.Run(context.Background(), camp, exp.Options{SeedBase: 42, JSONL: &warmJSONL})
	if err != nil {
		t.Fatal(err)
	}
	st = ts.client.LastStatus()
	if st.Executed != 0 {
		t.Fatalf("warm resubmission executed %d sims, want 0 (%+v)", st.Executed, st)
	}
	if st.FromStore != len(camp.Points) {
		t.Fatalf("warm resubmission served %d from store, want %d", st.FromStore, len(camp.Points))
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("warm point %d not marked cached", i)
		}
	}
	if !bytes.Equal(warmJSONL.Bytes(), localJSONL.Bytes()) {
		t.Fatal("warm remote JSONL differs from local (cache state leaked into canonical stream)")
	}
}

// TestConcurrentIdenticalCampaignsShareSimulations: two tenants
// submitting the same campaign concurrently must not double-simulate —
// every point runs once, the other tenant's copy is deduped in flight
// or served from the store.
func TestConcurrentIdenticalCampaignsShareSimulations(t *testing.T) {
	var sims atomic.Int64
	ts := newTestServer(t, Config{SimWorkers: 4})
	ts.srv.runSim = func(ctx context.Context, cfg dragonfly.Config) (dragonfly.Result, error) {
		sims.Add(1)
		time.Sleep(30 * time.Millisecond) // hold flights open so tenants overlap
		return dragonfly.Result{Mechanism: cfg.Mechanism.String(), OfferedLoad: cfg.Load, Delivered: 1}, nil
	}
	camp := tinyCampaign()

	const tenants = 3
	var wg sync.WaitGroup
	errs := make([]error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = ts.client.Run(context.Background(), camp, exp.Options{SeedBase: 42})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("tenant %d: %v", i, err)
		}
	}
	if got := sims.Load(); got != int64(len(camp.Points)) {
		t.Fatalf("%d tenants executed %d simulations, want %d (one per unique point)",
			tenants, got, len(camp.Points))
	}
}

// TestDrainMidCampaign is the graceful-shutdown acceptance check: a
// drain during a running campaign lets the in-flight simulation finish
// and persist, fails the unstarted points fast with ErrDraining, leaves
// the server-side JSONL mirror well-formed, and Drain returns cleanly.
func TestDrainMidCampaign(t *testing.T) {
	jsonlDir := t.TempDir()
	store, err := exp.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t, Config{Store: store, SimWorkers: 1, JSONLDir: jsonlDir})
	started := make(chan dragonfly.Config, 1)
	release := make(chan struct{})
	ts.srv.runSim = func(ctx context.Context, cfg dragonfly.Config) (dragonfly.Result, error) {
		select {
		case started <- cfg:
		default: // a second simulation: the Executed check below reports it
		}
		<-release
		return dragonfly.Result{Mechanism: cfg.Mechanism.String(), Delivered: 99}, nil
	}

	camp := tinyCampaign()
	id, err := ts.client.Submit(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	// Whichever point the one simulation lane claimed first is in flight;
	// nothing promises it is point 0.
	key := store.Key(<-started)
	inFlight := slices.IndexFunc(camp.Points, func(p exp.Point) bool { return store.Key(p.Config) == key })
	if inFlight < 0 {
		t.Fatal("the simulated config is no point of the campaign")
	}

	drained := make(chan error, 1)
	go func() { drained <- ts.srv.Drain(context.Background()) }()

	// Drain is observable before it completes: health flips to 503 and
	// new submissions are refused.
	waitFor(t, func() bool { return ts.client.Health(context.Background()) != nil })
	if _, err := ts.client.Submit(context.Background(), camp); err == nil {
		t.Fatal("submission accepted while draining")
	}

	close(release) // let the in-flight simulation finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	st, err := ts.client.Status(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished || st.Done != st.Total {
		t.Fatalf("campaign not finished after drain: %+v", st)
	}
	if st.Executed != 1 {
		t.Fatalf("drain executed %d sims, want exactly the in-flight one", st.Executed)
	}

	// The in-flight point's result persisted to the store.
	if res, ok := store.Get(key); !ok || res.Delivered != 99 {
		t.Fatalf("in-flight point %d's result not persisted: ok=%v %+v", inFlight, ok, res)
	}

	// The JSONL mirror is well-formed: every line self-contained, no torn
	// final line; the in-flight point carries its result, the rest
	// ErrDraining.
	buf, err := os.ReadFile(filepath.Join(jsonlDir, id+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 || buf[len(buf)-1] != '\n' {
		t.Fatal("JSONL mirror ends in a torn line")
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(buf))
	for sc.Scan() {
		var rec exp.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("JSONL line %d: %v", lines, err)
		}
		if rec.Index != lines {
			t.Fatalf("JSONL line %d carries index %d", lines, rec.Index)
		}
		switch {
		case rec.Index == inFlight:
			if rec.Result == nil || rec.Result.Delivered != 99 {
				t.Fatalf("in-flight point's line lost its result: %+v", rec)
			}
		default:
			if !strings.Contains(rec.Error, "draining") {
				t.Fatalf("unstarted point %d: error = %q, want draining", rec.Index, rec.Error)
			}
		}
		lines++
	}
	if lines != len(camp.Points) {
		t.Fatalf("JSONL mirror has %d lines, want %d", lines, len(camp.Points))
	}
}

// TestSubmitValidation: malformed campaigns are rejected up front.
func TestSubmitValidation(t *testing.T) {
	ts := newTestServer(t, Config{})
	if _, err := ts.client.Submit(context.Background(), exp.Campaign{Name: "empty"}); err == nil {
		t.Fatal("empty campaign accepted")
	}
	bad := tinyCampaign()
	bad.Points[0].Config.H = -1
	if _, err := ts.client.Submit(context.Background(), bad); err == nil {
		t.Fatal("invalid config accepted")
	}
	// A size past the engine's limit must die at admission with a 400: once
	// enqueued, Prepare's allocation would kill every worker that leases it.
	huge := tinyCampaign()
	huge.Points[0].Config.H = 400
	_, err := ts.client.Submit(context.Background(), huge)
	if err == nil || !strings.Contains(err.Error(), "400 Bad Request") {
		t.Fatalf("H=400 submit: %v, want a 400", err)
	}
	if n := len(ts.srv.statuses()); n != 0 {
		t.Fatalf("%d campaigns registered after rejected submits", n)
	}
	if st := ts.srv.queue.Stats(); st.QueuedPoints != 0 || st.ActiveLeases != 0 {
		t.Fatalf("rejected submit enqueued work: %+v", st)
	}
}

// TestSSEReplayAfterCompletion: subscribing to a finished campaign's
// event stream replays every point and the done event — the property
// that makes client reconnects idempotent.
func TestSSEReplayAfterCompletion(t *testing.T) {
	ts := newTestServer(t, Config{SimWorkers: 2})
	ts.srv.runSim = func(ctx context.Context, cfg dragonfly.Config) (dragonfly.Result, error) {
		return dragonfly.Result{Delivered: 5}, nil
	}
	camp := tinyCampaign()
	id, err := ts.client.Submit(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for completion via a first stream pass.
	if _, err := ts.client.stream(context.Background(), id, func(exp.Record) {}); err != nil {
		t.Fatal(err)
	}
	// A late subscriber still sees the full replay.
	var replayed int
	st, err := ts.client.stream(context.Background(), id, func(exp.Record) { replayed++ })
	if err != nil {
		t.Fatal(err)
	}
	if replayed != len(camp.Points) {
		t.Fatalf("late subscriber replayed %d events, want %d", replayed, len(camp.Points))
	}
	if !st.Finished {
		t.Fatalf("done event not marked finished: %+v", st)
	}
}

// TestBrowserPages smoke-tests the HTML browser.
func TestBrowserPages(t *testing.T) {
	ts := newTestServer(t, Config{SimWorkers: 1})
	camp := tinyCampaign()
	id, err := ts.client.Submit(context.Background(), camp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts.client.stream(context.Background(), id, func(exp.Record) {}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/", "/campaigns/" + id} {
		resp, err := ts.http.Client().Get(ts.http.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		if !bytes.Contains(body, []byte(id)) {
			t.Fatalf("GET %s: campaign %s not rendered", path, id)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}

// TestBrokenStoresAreLoggedNotFatal: the coordinator's and a worker's
// result stores both fail every Put, yet the campaign completes with
// every result — the failures land in the two logs.
func TestBrokenStoresAreLoggedNotFatal(t *testing.T) {
	brokenStore := func() *exp.Store {
		dir := t.TempDir()
		store, err := exp.OpenStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		return store
	}
	var srvLog, wkLog bytes.Buffer
	ts := newTestServer(t, Config{Store: brokenStore(), SimWorkers: -1, Log: log.New(&srvLog, "", 0)})
	wk, err := NewWorker(WorkerConfig{
		Coordinator: ts.http.URL, Name: "w", Store: brokenStore(),
		Sims: 1, Poll: 100 * time.Millisecond, Log: log.New(&wkLog, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	wk.runSim = func(context.Context, dragonfly.Config) (dragonfly.Result, error) {
		return dragonfly.Result{Delivered: 5}, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		wk.Run(ctx) //nolint:errcheck // only ever ctx.Err()
		close(done)
	}()
	camp := tinyCampaign()
	outs, err := ts.client.Run(context.Background(), camp, exp.Options{})
	cancel()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if perr := exp.PointErrors(outs); perr != nil {
		t.Fatalf("broken stores failed points: %v", perr)
	}
	for i := range outs {
		if outs[i].Result.Delivered != 5 {
			t.Fatalf("point %d lost its result: %+v", i, outs[i].Result)
		}
	}
	if st := ts.client.LastStatus(); st.Executed != len(camp.Points) || wk.Executed() != int64(len(camp.Points)) {
		t.Fatalf("executed: campaign %d, worker %d, want %d", st.Executed, wk.Executed(), len(camp.Points))
	}
	ts.srv.Close() // quiesce the server's logger before reading it
	for name, buf := range map[string]*bytes.Buffer{"coordinator": &srvLog, "worker": &wkLog} {
		if !strings.Contains(buf.String(), "store put") {
			t.Errorf("%s log does not mention the failed put:\n%s", name, buf.String())
		}
	}
}
