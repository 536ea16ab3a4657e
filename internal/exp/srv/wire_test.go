package srv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
)

// The wire pin: the exact bytes of the four messages a mixed-version
// fleet exchanges — campaign submission, lease grant, result
// submission, SSE point event — so a refactor of the Go types behind
// them cannot strand an old dragonsrv -worker or an old -remote CLI.
// Config and Result are spliced in from their own encoding (the cache
// key pins that); the two wall-clock fields are masked.

var volatile = regexp.MustCompile(`"(lease_seconds|seconds)":[^,}]+`)

// wireForm compacts a JSON body and masks its wall-clock fields.
func wireForm(t *testing.T, body []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, body)
	}
	return volatile.ReplaceAllString(buf.String(), `"$1":X`)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func TestWireFormatPinned(t *testing.T) {
	cfg := tinyCampaign().Points[0].Config
	camp := exp.Campaign{Name: "pin", Points: []exp.Point{{Series: "s", X: 0.25, Config: cfg}}}
	result := dragonfly.Result{Delivered: 5}
	cfgJSON, resJSON := mustJSON(t, cfg), mustJSON(t, result)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A dispatch-only coordinator: the point waits in the queue until
	// this test claims it over the lease API.
	store, err := exp.OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var submitted atomic.Value
	ts := newTestServer(t, Config{Store: store, SimWorkers: -1})
	coordinator := ts.srv.Handler()
	tap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/api/v1/campaigns" {
			body, _ := io.ReadAll(r.Body)
			submitted.Store(body)
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		coordinator.ServeHTTP(w, r)
	}))
	defer tap.Close()

	id, err := NewClient(tap.URL).Submit(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	wantSubmit := `{"name":"pin","points":[{"series":"s","x":0.25,"config":` + cfgJSON + `}]}`
	if got := wireForm(t, submitted.Load().([]byte)); got != wantSubmit {
		t.Errorf("submit request:\n got %s\nwant %s", got, wantSubmit)
	}

	resp, err := http.Post(tap.URL+"/api/v1/leases", "application/json",
		strings.NewReader(`{"worker":"pin","max":1,"wait_ms":5000}`))
	if err != nil {
		t.Fatal(err)
	}
	grantBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	wantGrant := `{"id":"l0001","lease_seconds":X,"points":[{"task":"t0001","key":"` + store.Key(cfg) +
		`","attempt":1,"config":` + cfgJSON + `}]}`
	if got := wireForm(t, grantBody); got != wantGrant {
		t.Errorf("lease grant:\n got %s\nwant %s", got, wantGrant)
	}

	// A Worker fed that very grant by a scripted coordinator: it must
	// decode it and answer with the pinned results request.
	results := make(chan []byte, 1)
	var claims atomic.Int32
	script := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/api/v1/leases" && claims.Add(1) == 1:
			w.Write(grantBody) //nolint:errcheck
		case r.URL.Path == "/api/v1/leases":
			<-r.Context().Done() // no more work: hold the long poll
		case strings.HasSuffix(r.URL.Path, "/results"):
			body, _ := io.ReadAll(r.Body)
			results <- body
			io.WriteString(w, `{"accepted":1,"discarded":0}`) //nolint:errcheck
		default:
			io.WriteString(w, `{}`) //nolint:errcheck
		}
	}))
	wk, err := NewWorker(WorkerConfig{Coordinator: script.URL, Name: "pin", Sims: 1, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	wk.runSim = func(context.Context, dragonfly.Config) (dragonfly.Result, error) { return result, nil }
	wctx, stopWorker := context.WithCancel(ctx)
	workerDone := make(chan struct{})
	go func() {
		wk.Run(wctx) //nolint:errcheck // only ever ctx.Err()
		close(workerDone)
	}()
	var resultsBody []byte
	select {
	case resultsBody = <-results:
	case <-ctx.Done():
		t.Fatal("worker never submitted a result")
	}
	stopWorker()
	<-workerDone
	script.Close()
	wantResults := `{"results":[{"task":"t0001","result":` + resJSON + `}]}`
	if got := wireForm(t, resultsBody); got != wantResults {
		t.Errorf("results request:\n got %s\nwant %s", got, wantResults)
	}

	// Hand the worker's bytes to the real coordinator under the real
	// lease, then read the campaign's first SSE frame off the wire.
	var grant struct{ ID string }
	if err := json.Unmarshal(grantBody, &grant); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(tap.URL+"/api/v1/leases/"+grant.ID+"/results", "application/json", bytes.NewReader(resultsBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results submission: %s", resp.Status)
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, tap.URL+"/api/v1/campaigns/"+id+"/events", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	event, _ := rd.ReadString('\n')
	data, _ := rd.ReadString('\n')
	blank, _ := rd.ReadString('\n')
	payload, ok := strings.CutPrefix(data, "data: ")
	if event != "event: point\n" || !ok || blank != "\n" {
		t.Fatalf("SSE framing: %q %q %q", event, data, blank)
	}
	wantPoint := `{"index":0,"series":"s","x":0.25,"seconds":X,"config":` + cfgJSON + `,"result":` + resJSON + `}`
	if got := wireForm(t, []byte(payload)); got != wantPoint {
		t.Errorf("SSE point record:\n got %s\nwant %s", got, wantPoint)
	}
}
