// Package queue is the coordinator side of dragonsrv's distributed
// worker fleet: an in-memory, lease-based point queue designed so that
// any worker can die at any moment and the campaign still completes.
//
// Enqueued points are handed out in batches under leases — claims with a
// deadline that the holder must extend by heartbeating. A lease whose
// deadline passes (worker crashed, hung, or partitioned) has its
// unfinished points requeued automatically with capped exponential
// backoff plus jitter; a late result submitted under an expired lease is
// discarded idempotently (the engine is deterministic, so whichever
// execution lands first is the execution). A point whose lease expires
// under enough distinct workers — or too many times overall — is
// quarantined: it completes with ErrPoison instead of wedging the
// campaign in an eternal retry loop.
//
// The queue holds no durable state. Crash-safety of the fleet comes from
// the composition with exp.Store (finished points persist on disk, so a
// coordinator restart re-enqueues only unfinished work) and from
// deterministic per-point seeding (re-execution is byte-identical, so
// at-least-once delivery is safe by construction).
package queue

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	dragonfly "repro"
)

// ErrLeaseExpired is returned for operations on a lease the queue no
// longer holds: it expired and its points were requeued, or it never
// existed (a coordinator restart forgets all leases). Results submitted
// under such a lease are discarded.
var ErrLeaseExpired = errors.New("queue: lease expired or unknown")

// ErrPoison is wrapped into the outcome of a quarantined point — one
// whose lease expired under PoisonWorkers distinct workers (or
// MaxAttempts times overall). It surfaces through the campaign's
// ordinary per-point error path.
var ErrPoison = errors.New("queue: point quarantined")

// errDraining is delivered to pending points when the queue drains; the
// caller supplies its own cause via Drain, this is only the fallback.
var errDraining = errors.New("queue: draining")

// Config tunes a Queue. The zero value gets production defaults.
type Config struct {
	// Lease is how long a claim lives without a heartbeat (default 30s).
	Lease time.Duration
	// Tick is the expiry/backoff scan period (default Lease/4, clamped
	// to [5ms, 500ms]).
	Tick time.Duration
	// PoisonWorkers quarantines a point once its lease has expired under
	// this many distinct workers (default 3).
	PoisonWorkers int
	// MaxAttempts quarantines a point once it has been requeued this
	// many times regardless of worker identity, so a lone crashing
	// worker cannot retry forever (default 6).
	MaxAttempts int
	// BackoffBase is the first requeue delay; attempt n waits
	// min(BackoffBase<<(n-1), BackoffMax), jittered to [d/2, d]
	// (defaults 200ms and 15s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 30 * time.Second
	}
	if c.Tick <= 0 {
		c.Tick = c.Lease / 4
		if c.Tick < 5*time.Millisecond {
			c.Tick = 5 * time.Millisecond
		}
		if c.Tick > 500*time.Millisecond {
			c.Tick = 500 * time.Millisecond
		}
	}
	if c.PoisonWorkers <= 0 {
		c.PoisonWorkers = 3
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 200 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 15 * time.Second
	}
	return c
}

// Outcome is what a point's execution produced, delivered to the
// enqueuer's ticket exactly once.
type Outcome struct {
	Result dragonfly.Result
	Err    error
}

// Ticket is the enqueuer's handle on a point: Done receives the outcome
// exactly once (the channel is buffered, so the queue never blocks on a
// departed waiter).
type Ticket struct {
	ID   string
	Done <-chan Outcome
}

// Task is one claimable point as handed to a worker; the JSON layout is
// the lease API's wire format for a claimed point.
type Task struct {
	ID      string           `json:"task"`
	Key     string           `json:"key"`     // content address, for logs
	Attempt int              `json:"attempt"` // 1 for the first execution; counts requeues
	Config  dragonfly.Config `json:"config"`
}

// Lease is a claim on a batch of tasks. Remote leases expire unless
// heartbeated; local leases (the coordinator's own sim workers) live as
// long as the process, since their holder cannot outlive the queue.
type Lease struct {
	ID       string
	Worker   string
	Deadline time.Time // zero for local leases
	Tasks    []Task
}

type taskState int

const (
	statePending taskState = iota
	stateLeased
	stateDone
)

type task struct {
	Task    // Attempt counts executions started, the current one included
	done    chan Outcome
	state   taskState
	readyAt time.Time
	crashed map[string]bool // distinct workers whose lease expired holding it
}

type lease struct {
	id       string
	worker   string
	local    bool
	deadline time.Time
	pending  map[string]*task
	finished map[string]bool
}

type workerState struct {
	lastSeen  time.Time
	completed int64
	crashes   int64
}

// Queue is the lease-based point queue. Create with New, stop with
// Close. All methods are safe for concurrent use.
type Queue struct {
	cfg Config

	mu        sync.Mutex
	pending   []*task // FIFO; entries may carry a future readyAt (backoff)
	byID      map[string]*task
	leases    map[string]*lease
	workers   map[string]*workerState
	nextTask  int
	nextLease int
	draining  bool
	drainErr  error
	wake      chan struct{} // closed-and-replaced broadcast

	// counters
	completed, failed     int64
	requeues, expired     int64
	quarantined, lateDrop int64

	stop     chan struct{}
	stopOnce sync.Once
}

// New creates a Queue and starts its expiry/backoff scanner.
func New(cfg Config) *Queue {
	q := &Queue{
		cfg:     cfg.withDefaults(),
		byID:    make(map[string]*task),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerState),
		wake:    make(chan struct{}),
		stop:    make(chan struct{}),
	}
	go q.scan()
	return q
}

// Close stops the scanner. Pending tickets are not completed; Close is
// for process shutdown, after Drain (or instead of it, on abort).
func (q *Queue) Close() {
	q.stopOnce.Do(func() { close(q.stop) })
}

// scan periodically expires overdue leases and wakes claim waiters so
// backoff-delayed points get picked up.
func (q *Queue) scan() {
	t := time.NewTicker(q.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-q.stop:
			return
		case <-t.C:
			q.mu.Lock()
			q.expireLocked(time.Now())
			q.broadcastLocked()
			q.mu.Unlock()
		}
	}
}

func (q *Queue) broadcastLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Enqueue adds a point and returns the ticket its outcome will arrive
// on. Fails once the queue is draining.
func (q *Queue) Enqueue(key string, cfg dragonfly.Config) (*Ticket, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, q.drainErrLocked()
	}
	q.nextTask++
	t := &task{
		Task: Task{ID: fmt.Sprintf("t%04d", q.nextTask), Key: key, Config: cfg},
		done: make(chan Outcome, 1),
	}
	q.byID[t.ID] = t
	q.pending = append(q.pending, t)
	q.broadcastLocked()
	return &Ticket{ID: t.ID, Done: t.done}, nil
}

func (q *Queue) drainErrLocked() error {
	if q.drainErr != nil {
		return q.drainErr
	}
	return errDraining
}

// Claim hands out up to max ready points under a new lease. A nil lease
// with a nil error means no work is ready right now (poll or use
// WaitClaim). Draining queues refuse claims with the drain cause.
func (q *Queue) Claim(worker string, max int, local bool) (*Lease, error) {
	if max <= 0 {
		max = 1
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining {
		return nil, q.drainErrLocked()
	}
	q.touchLocked(worker, now)
	var picked []*task
	rest := q.pending[:0]
	for _, t := range q.pending {
		if len(picked) < max && !t.readyAt.After(now) {
			picked = append(picked, t)
		} else {
			rest = append(rest, t)
		}
	}
	for i := len(rest); i < len(q.pending); i++ {
		q.pending[i] = nil
	}
	q.pending = rest
	if len(picked) == 0 {
		return nil, nil
	}
	q.nextLease++
	l := &lease{
		id:       fmt.Sprintf("l%04d", q.nextLease),
		worker:   worker,
		local:    local,
		pending:  make(map[string]*task, len(picked)),
		finished: make(map[string]bool),
	}
	if !local {
		l.deadline = now.Add(q.cfg.Lease)
	}
	out := &Lease{ID: l.id, Worker: worker, Deadline: l.deadline}
	for _, t := range picked {
		t.state = stateLeased
		t.Attempt++
		l.pending[t.ID] = t
		out.Tasks = append(out.Tasks, t.Task)
	}
	q.leases[l.id] = l
	return out, nil
}

// WaitClaim is Claim with patience: when no work is ready it blocks
// until some arrives, maxWait passes (returning a nil lease), or ctx is
// done. Draining still fails fast. Wakeups come from enqueues, requeue
// scans, and drains; backoff-delayed points become claimable within one
// scan tick of their delay elapsing.
func (q *Queue) WaitClaim(ctx context.Context, worker string, max int, maxWait time.Duration, local bool) (*Lease, error) {
	timeout := time.NewTimer(maxWait)
	defer timeout.Stop()
	for {
		// Capture the wake channel before claiming: an enqueue that lands
		// after an empty claim closes this very channel, so it cannot be
		// missed.
		q.mu.Lock()
		wake := q.wake
		q.mu.Unlock()
		l, err := q.Claim(worker, max, local)
		if err != nil || l != nil {
			return l, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timeout.C:
			return nil, nil
		case <-wake:
		}
	}
}

// touchLocked refreshes a worker's liveness record.
func (q *Queue) touchLocked(worker string, now time.Time) {
	ws := q.workers[worker]
	if ws == nil {
		ws = &workerState{}
		q.workers[worker] = ws
	}
	ws.lastSeen = now
}

// Heartbeat extends a lease's deadline by the configured lease duration
// and returns the new deadline. Local leases have no deadline to extend.
func (q *Queue) Heartbeat(leaseID string) (time.Time, error) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	l := q.leases[leaseID]
	if l == nil {
		return time.Time{}, ErrLeaseExpired
	}
	q.touchLocked(l.worker, now)
	if !l.local {
		l.deadline = now.Add(q.cfg.Lease)
	}
	return l.deadline, nil
}

// Complete submits one task's outcome under a lease. accepted reports
// whether the outcome was delivered; a duplicate submission for a task
// this lease already finished is a no-op (false, nil). Submissions under
// an expired or unknown lease are discarded with ErrLeaseExpired — the
// zombie-worker case.
func (q *Queue) Complete(leaseID, taskID string, out Outcome) (accepted bool, err error) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	l := q.leases[leaseID]
	if l == nil {
		q.lateDrop++
		return false, ErrLeaseExpired
	}
	q.touchLocked(l.worker, now)
	if l.finished[taskID] {
		return false, nil
	}
	t := l.pending[taskID]
	if t == nil {
		return false, fmt.Errorf("queue: task %s is not part of lease %s", taskID, leaseID)
	}
	delete(l.pending, taskID)
	l.finished[taskID] = true
	if len(l.pending) == 0 {
		delete(q.leases, leaseID)
	}
	q.workers[l.worker].completed++
	q.deliverLocked(t, out)
	return true, nil
}

// deliverLocked finishes a task exactly once.
func (q *Queue) deliverLocked(t *task, out Outcome) {
	if t.state == stateDone {
		return
	}
	t.state = stateDone
	delete(q.byID, t.ID)
	if out.Err != nil {
		q.failed++
	} else {
		q.completed++
	}
	t.done <- out
}

// expireLocked requeues (or quarantines) the points of every overdue
// lease and records the crash against the worker that held it.
func (q *Queue) expireLocked(now time.Time) {
	for id, l := range q.leases {
		if l.local || l.deadline.After(now) {
			continue
		}
		delete(q.leases, id)
		if len(l.pending) == 0 {
			continue // idle lease aged out; nothing was lost
		}
		q.expired++
		q.workers[l.worker].crashes++
		for _, t := range l.pending {
			if t.crashed == nil {
				t.crashed = make(map[string]bool)
			}
			t.crashed[l.worker] = true
			q.requeues++
			switch {
			case q.draining:
				q.deliverLocked(t, Outcome{Err: q.drainErrLocked()})
			case len(t.crashed) >= q.cfg.PoisonWorkers || t.Attempt >= q.cfg.MaxAttempts:
				q.quarantined++
				q.deliverLocked(t, Outcome{Err: fmt.Errorf(
					"%w: crashed %d distinct worker(s) over %d attempt(s): %s",
					ErrPoison, len(t.crashed), t.Attempt, crashers(t.crashed))})
			default:
				t.state = statePending
				t.readyAt = now.Add(Backoff(t.Attempt-1, q.cfg.BackoffBase, q.cfg.BackoffMax))
				q.pending = append(q.pending, t)
			}
		}
	}
}

// crashers lists the workers a poison point took down, sorted.
func crashers(m map[string]bool) string {
	names := make([]string, 0, len(m))
	for w := range m {
		names = append(names, w)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Backoff returns the jittered exponential delay before retry n
// (0-based): base<<n capped at max, then drawn from [d/2, d] so a fleet
// does not requeue, reconnect or re-claim in lockstep. It is the one
// retry schedule of the fleet: lease requeues here, HTTP retries in srv.
func Backoff(n int, base, max time.Duration) time.Duration {
	d := base
	for i := 0; i < n && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// Drain refuses new enqueues and claims, and fails every point that is
// not currently leased with cause. Leased points stay collectable:
// their workers can still heartbeat and submit results; if their lease
// expires instead, they fail with cause rather than requeue.
func (q *Queue) Drain(cause error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.draining = true
	q.drainErr = cause
	for _, t := range q.pending {
		q.deliverLocked(t, Outcome{Err: q.drainErrLocked()})
	}
	q.pending = nil
	q.broadcastLocked()
}

// WorkerStats is one worker's health as the fleet sees it.
type WorkerStats struct {
	Name string `json:"name"`
	// HeartbeatAgeSeconds is the time since the worker last claimed,
	// heartbeated, or submitted.
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	ActiveLeases        int     `json:"active_leases"`
	ActivePoints        int     `json:"active_points"`
	Completed           int64   `json:"completed"`
	// Crashes counts leases that expired while this worker held them.
	Crashes int64 `json:"crashes"`
}

// FleetStats is a snapshot of the queue, for the observability API.
type FleetStats struct {
	QueuedPoints int           `json:"queued_points"`
	LeasedPoints int           `json:"leased_points"`
	ActiveLeases int           `json:"active_leases"`
	Workers      []WorkerStats `json:"workers,omitempty"`
	Completed    int64         `json:"completed"`
	Failed       int64         `json:"failed"`
	Requeues     int64         `json:"requeues"`
	// ExpiredLeases counts leases that died with work outstanding.
	ExpiredLeases int64 `json:"expired_leases"`
	Quarantined   int64 `json:"quarantined"`
	// LateDiscarded counts result submissions under expired leases —
	// zombie workers whose work was already requeued.
	LateDiscarded int64 `json:"late_discarded"`
}

// Stats snapshots the queue.
func (q *Queue) Stats() FleetStats {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	st := FleetStats{
		QueuedPoints:  len(q.pending),
		ActiveLeases:  len(q.leases),
		Completed:     q.completed,
		Failed:        q.failed,
		Requeues:      q.requeues,
		ExpiredLeases: q.expired,
		Quarantined:   q.quarantined,
		LateDiscarded: q.lateDrop,
	}
	perWorker := make(map[string]*WorkerStats, len(q.workers))
	for name, ws := range q.workers {
		perWorker[name] = &WorkerStats{
			Name:                name,
			HeartbeatAgeSeconds: now.Sub(ws.lastSeen).Seconds(),
			Completed:           ws.completed,
			Crashes:             ws.crashes,
		}
	}
	for _, l := range q.leases {
		st.LeasedPoints += len(l.pending)
		if w := perWorker[l.worker]; w != nil {
			w.ActiveLeases++
			w.ActivePoints += len(l.pending)
		}
	}
	names := make([]string, 0, len(perWorker))
	for name := range perWorker {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Workers = append(st.Workers, *perWorker[name])
	}
	return st
}
