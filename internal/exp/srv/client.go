package srv

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/exp/queue"
)

// Transient-failure policy shared by the client and the worker: a
// request that fails on the transport, or with a 5xx (a restarting,
// overloaded, or draining server), is retried with capped exponential
// backoff plus jitter (queue.Backoff — the same schedule lease requeues
// follow). 4xx responses are the caller's fault and are never retried.
// The budget is deliberately modest — a server that is down for good
// should fail the run in seconds, not minutes.
const (
	retryAttempts = 5
	retryBackoff  = 100 * time.Millisecond
	retryCap      = 3 * time.Second
)

// sleepCtx sleeps for d; false means ctx expired first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Client is the thin remote-execution client behind the CLIs' -remote
// flag. Client.Run mirrors exp.Run's contract — same outcome slice,
// same progress events, same canonical JSONL bytes — so callers switch
// between local and remote execution without observable difference
// beyond where the simulations burn their cycles.
type Client struct {
	base string
	hc   *http.Client

	mu   sync.Mutex
	last Status // status of the most recent completed Run
}

// NewClient creates a client for a dragonsrv base URL such as
// "http://127.0.0.1:8080".
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimRight(base, "/"),
		// SSE streams have no overall deadline; rely on ctx for cancel.
		hc: &http.Client{},
	}
}

// LastStatus returns the server-side status of the most recent
// completed Run — CLIs print its Executed/FromStore/Deduped split.
func (c *Client) LastStatus() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

// Submit posts a campaign and returns its server-assigned ID.
func (c *Client) Submit(ctx context.Context, camp exp.Campaign) (string, error) {
	var resp submitResponse
	_, err := c.doJSON(ctx, http.MethodPost, "/api/v1/campaigns",
		submitRequest{Name: camp.Name, Points: camp.Points}, &resp)
	return resp.ID, err
}

// Status fetches one campaign's status.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.doJSON(ctx, http.MethodGet, "/api/v1/campaigns/"+id, nil, &st)
	return st, err
}

// StoreStats fetches the server's store statistics.
func (c *Client) StoreStats(ctx context.Context) (exp.StoreStats, error) {
	var st storeResponse
	_, err := c.doJSON(ctx, http.MethodGet, "/api/v1/store", nil, &st)
	return st.StoreStats, err
}

// FleetStats fetches the server's lease-queue snapshot: active leases,
// per-worker heartbeat ages, requeue/quarantine counters.
func (c *Client) FleetStats(ctx context.Context) (queue.FleetStats, error) {
	var st storeResponse
	_, err := c.doJSON(ctx, http.MethodGet, "/api/v1/store", nil, &st)
	return st.Fleet, err
}

// doJSON performs one API call, retrying transient failures (transport
// errors and 5xx) per the policy above. Note that a retried POST may
// execute twice if the first response was lost in flight; every POST in
// this API is safe to repeat — a duplicate campaign submission dedups
// against the store and in-flight sims, so it costs bookkeeping, not
// simulations; a duplicate result submission is an idempotent no-op.
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) (status int, err error) {
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, queue.Backoff(attempt-1, retryBackoff, retryCap)) {
			return status, err
		}
		status, err = c.requestJSON(ctx, method, path, in, out)
		if err == nil || (status != 0 && status/100 != 5) || ctx.Err() != nil {
			return status, err
		}
	}
	return status, fmt.Errorf("srv: giving up after %d attempts: %w", retryAttempts, err)
}

// requestJSON performs one JSON request — the only request code of the
// client and the worker. A non-nil in is the JSON body; a non-nil out
// receives the decoded 2xx response. The returned status is non-zero
// whenever an HTTP response arrived, so callers can tell a transport
// failure (0: transient) from a 410 or a 5xx.
func (c *Client) requestJSON(ctx context.Context, method, path string, in, out any) (status int, err error) {
	var rd io.Reader
	if in != nil {
		body, err := json.Marshal(in)
		if err != nil {
			return 0, fmt.Errorf("srv: encode %s request: %w", path, err)
		}
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, fmt.Errorf("srv: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("srv: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("srv: %s %s: %s: %s", method, path, resp.Status, errBody(resp.Body))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
		return resp.StatusCode, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("srv: decode %s response: %w", path, err)
	}
	return resp.StatusCode, nil
}

// errBody extracts the server's {"error": ...} message, if any.
func errBody(r io.Reader) string {
	buf, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(buf, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(buf))
}

// errRemote marks per-point errors that happened on the server.
type errRemote struct{ msg string }

func (e errRemote) Error() string { return e.msg }

// Run executes a campaign remotely, mirroring exp.Run: outcomes return
// in campaign order, opt.Progress fires serially per finished point,
// opt.JSONL receives the canonical stream (remote execution always
// writes canonical JSONL — that is what makes it byte-identical to a
// local -jsonl run). Seeding (opt.SeedBase) is applied locally before
// submission, so the server simulates exactly the configs a local run
// would. opt.Workers and opt.Cache are server-side concerns and are
// ignored. The SSE stream replays from the start on reconnect, so a
// dropped connection resumes idempotently.
func (c *Client) Run(ctx context.Context, camp exp.Campaign, opt exp.Options) ([]exp.Outcome, error) {
	points := make([]exp.Point, len(camp.Points))
	copy(points, camp.Points)
	if opt.SeedBase != 0 {
		for i := range points {
			points[i].Config.Seed = exp.PointSeed(opt.SeedBase, i)
		}
	}
	id, err := c.Submit(ctx, exp.Campaign{Name: camp.Name, Points: points})
	if err != nil {
		return nil, err
	}

	outs := make([]exp.Outcome, len(points))
	for i := range outs {
		outs[i] = exp.Outcome{Index: i, Point: points[i]}
	}
	got := make([]bool, len(points))
	done := 0
	onRecord := func(rec exp.Record) {
		if rec.Index < 0 || rec.Index >= len(outs) || got[rec.Index] {
			return // duplicate from a replayed stream, or garbage
		}
		got[rec.Index] = true
		done++
		o := &outs[rec.Index]
		o.Cached = rec.Cached
		o.Seconds = rec.Seconds
		if rec.Error != "" {
			o.Err = errRemote{msg: rec.Error}
		} else if rec.Result != nil {
			o.Result = *rec.Result
		}
		if opt.Progress != nil {
			opt.Progress(exp.Progress{Done: done, Total: len(outs), Outcome: *o})
		}
	}

	// A coordinator restart loses its in-memory campaign registry (the
	// result store persists on disk). When the event stream 404s,
	// resubmit the same seeded points: finished points replay straight
	// from the store, got[] dedups them by index, and only unfinished
	// work simulates again.
	const resubmits = 3
	st, err := c.stream(ctx, id, onRecord)
	for lost := 0; errors.Is(err, errCampaignLost) && lost < resubmits && ctx.Err() == nil; lost++ {
		var subErr error
		if id, subErr = c.Submit(ctx, exp.Campaign{Name: camp.Name, Points: points}); subErr != nil {
			err = subErr
			break
		}
		st, err = c.stream(ctx, id, onRecord)
	}
	if err != nil {
		// The transport failed for good; surface it campaign-level and
		// mark every point we never heard about, like a cancellation.
		for i := range outs {
			if !got[i] {
				outs[i].Err = err
			}
		}
		return outs, err
	}
	for i := range outs {
		if !got[i] {
			outs[i].Err = fmt.Errorf("srv: campaign %s finished without a result for point %d", id, i)
		}
	}
	c.mu.Lock()
	c.last = st
	c.mu.Unlock()

	var jsonlErr error
	if opt.JSONL != nil {
		for i := range outs {
			if jsonlErr = exp.WriteCanonicalRecord(opt.JSONL, &outs[i]); jsonlErr != nil {
				break
			}
		}
	}
	return outs, jsonlErr
}

// streamAttempts bounds SSE reconnects on transport errors.
const streamAttempts = 5

// errCampaignLost means the server no longer knows the campaign —
// it restarted and lost its in-memory registry. Run reacts by
// resubmitting; retrying the stream cannot help.
var errCampaignLost = errors.New("srv: campaign not found (coordinator restarted?)")

// stream consumes the campaign's SSE feed until its "done" event,
// reconnecting with jittered backoff on transport errors (the server
// replays from the start; onRecord deduplicates by index).
func (c *Client) stream(ctx context.Context, id string, onRecord func(exp.Record)) (Status, error) {
	var lastErr error
	for attempt := 0; attempt < streamAttempts; attempt++ {
		if attempt > 0 {
			if !sleepCtx(ctx, queue.Backoff(attempt-1, retryBackoff, retryCap)) {
				return Status{}, ctx.Err()
			}
		}
		st, done, err := c.streamOnce(ctx, id, onRecord)
		if done {
			return st, nil
		}
		if ctx.Err() != nil {
			return Status{}, ctx.Err()
		}
		if errors.Is(err, errCampaignLost) {
			return Status{}, err
		}
		lastErr = err
	}
	return Status{}, fmt.Errorf("srv: event stream for campaign %s failed after %d attempts: %w",
		id, streamAttempts, lastErr)
}

// The SSE line prefixes streamOnce reads.
var eventPrefix, dataPrefix = []byte("event: "), []byte("data: ")

func (c *Client) streamOnce(ctx context.Context, id string, onRecord func(exp.Record)) (Status, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/api/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return Status{}, false, fmt.Errorf("srv: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return Status{}, false, fmt.Errorf("srv: events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return Status{}, false, fmt.Errorf("%w (campaign %s)", errCampaignLost, id)
	}
	if resp.StatusCode != http.StatusOK {
		return Status{}, false, fmt.Errorf("srv: events: %s: %s", resp.Status, errBody(resp.Body))
	}

	// Lines are read in place (sc.Bytes): the event name and data are
	// copied into buffers reused across events, so a point costs its
	// decode and no line strings.
	var event, data []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxBodyBytes)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			switch string(event) {
			case "point":
				var rec exp.Record
				if err := json.Unmarshal(data, &rec); err != nil {
					return Status{}, false, fmt.Errorf("srv: decode point event: %w", err)
				}
				onRecord(rec)
			case "done":
				var st Status
				if err := json.Unmarshal(data, &st); err != nil {
					return Status{}, false, fmt.Errorf("srv: decode done event: %w", err)
				}
				return st, true, nil
			}
			event, data = event[:0], data[:0]
		case bytes.HasPrefix(line, eventPrefix):
			event = append(event[:0], line[len(eventPrefix):]...)
		case bytes.HasPrefix(line, dataPrefix):
			data = append(data, line[len(dataPrefix):]...)
		}
	}
	if err := sc.Err(); err != nil {
		return Status{}, false, fmt.Errorf("srv: events stream: %w", err)
	}
	return Status{}, false, errors.New("srv: event stream ended before campaign finished")
}

// Health probes /healthz; nil means the server is up and accepting.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.requestJSON(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}
