// Command dragonsrv serves internal/exp as a long-running campaign
// service: clients POST campaigns to its HTTP/JSON API (dfsweep and
// paperfigs do so via -remote), identical points submitted concurrently
// share one simulation, and finished results persist in a size-bounded
// LRU store so warm resubmissions execute zero simulations. Progress
// streams over SSE; / serves a plain-HTML results browser.
//
//	dragonsrv -addr :8080 -store ~/.cache/dragonsrv -maxstore 512MiB
//
// The same binary is also the fleet worker. Pointed at a coordinator it
// claims leased batches of points, executes them locally (with its own
// result store), streams outcomes back, and heartbeats its leases; it
// survives coordinator restarts and unreachability by backing off and
// rejoining, and exits only on SIGTERM/SIGINT:
//
//	dragonsrv -worker http://coordinator:8080 -name rack7 -store .dragonwrk
//
// A coordinator that should not simulate anything itself (fleet-only)
// runs with -sims -1.
//
// SIGTERM or SIGINT drains gracefully: new submissions are rejected, no
// new leases are issued, queued points that have not started fail fast,
// in-flight simulations — local and leased to workers — finish and
// persist, JSONL mirrors are flushed, and the process exits 0. A second
// signal — or the -draintimeout deadline — aborts the remaining
// simulations instead of waiting for them.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/exp"
	"repro/internal/exp/queue"
	"repro/internal/exp/srv"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address (coordinator mode)")
		storeDir     = flag.String("store", ".dragonsrv", "result store directory")
		maxStore     = flag.String("maxstore", "", `store size budget with LRU eviction, e.g. "512MiB", "2GiB" or a byte count (empty = unbounded)`)
		sims         = flag.Int("sims", 0, "max concurrent simulations (0 = GOMAXPROCS; -1 = coordinator dispatches to workers only)")
		jsonlDir     = flag.String("jsonldir", "", "mirror each campaign's canonical JSONL to this directory (empty = off)")
		drainTimeout = flag.Duration("draintimeout", 15*time.Minute, "how long a drain waits for in-flight simulations before aborting them")
		lease        = flag.Duration("lease", 30*time.Second, "fleet lease duration; a worker silent this long has its points requeued")
		worker       = flag.String("worker", "", "run as a fleet worker against this coordinator URL instead of serving")
		name         = flag.String("name", "", "worker name (default hostname-pid); distinct workers need distinct names")
		batch        = flag.Int("batch", 4, "worker: max points claimed per lease")
		poll         = flag.Duration("poll", 15*time.Second, "worker: long-poll wait when the queue is idle")
		quiet        = flag.Bool("q", false, "suppress operational log lines")
	)
	flag.Parse()

	maxBytes, err := parseBytes(*maxStore)
	cliutil.FatalIf(err)
	store, err := exp.OpenStore(*storeDir, maxBytes)
	cliutil.FatalIf(err)

	logger := log.New(os.Stderr, "dragonsrv: ", log.LstdFlags)
	if *worker != "" {
		runWorker(store, *worker, *name, *sims, *batch, *poll, *quiet, logger)
		return
	}

	cfg := srv.Config{
		Store:      store,
		SimWorkers: *sims,
		JSONLDir:   *jsonlDir,
		Fleet:      queue.Config{Lease: *lease},
	}
	if !*quiet {
		cfg.Log = logger
	}
	server, err := srv.New(cfg)
	cliutil.FatalIf(err)

	ln, err := net.Listen("tcp", *addr)
	cliutil.FatalIf(err)
	hs := &http.Server{
		Handler: server.Handler(),
		// A slowloris client must not pin the daemon: bound how long a
		// request may dribble its headers and how long an idle keep-alive
		// connection is kept. No overall write timeout — SSE streams and
		// blocking results endpoints are long-lived by design; per-write
		// deadlines inside the SSE handler cover wedged subscribers.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	logger.Printf("listening on %s (store %s, budget %s, lease %s)",
		ln.Addr(), *storeDir, budgetString(maxBytes), *lease)

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		logger.Printf("%s: draining (timeout %s; signal again to abort in-flight simulations)", sig, *drainTimeout)
	case err := <-httpDone:
		cliutil.FatalIf(err) // listener died before any signal
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sigs
		logger.Printf("second signal: aborting in-flight simulations")
		cancel()
	}()
	if err := server.Drain(drainCtx); err != nil {
		logger.Printf("drain cut short: %v", err)
	}
	cancel()

	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := hs.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
	st := store.Stats()
	logger.Printf("drained; store: %d entries, %d bytes, %d hits, %d misses, %d evictions",
		st.Entries, st.Bytes, st.Hits, st.Misses, st.Evictions)
}

// runWorker runs the fleet-worker loop until SIGTERM/SIGINT.
func runWorker(store *exp.Store, coordinator, name string, sims, batch int, poll time.Duration, quiet bool, logger *log.Logger) {
	if name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	cfg := srv.WorkerConfig{
		Coordinator: coordinator,
		Name:        name,
		Store:       store,
		Sims:        sims,
		Batch:       batch,
		Poll:        poll,
	}
	if !quiet {
		cfg.Log = logger
	}
	wk, err := srv.NewWorker(cfg)
	cliutil.FatalIf(err)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	logger.Printf("worker %s: pulling from %s (batch %d, poll %s)", name, coordinator, batch, poll)
	wk.Run(ctx) //nolint:errcheck // only ever ctx.Err()
	logger.Printf("worker %s: stopped after %d simulation(s)", name, wk.Executed())
}

// parseBytes parses a byte budget: a plain integer, or an integer with
// a KB/MB/GB (decimal) or KiB/MiB/GiB (binary) suffix. Empty means 0,
// i.e. unbounded.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	units := []struct {
		suffix string
		mult   int64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9},
		{"B", 1},
	}
	mult := int64(1)
	num := s
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			num = strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
			break
		}
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid size %q (want e.g. 512MiB, 2GiB, or a byte count)", s)
	}
	return n * mult, nil
}

func budgetString(n int64) string {
	if n <= 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d bytes", n)
}
