package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
)

// runTraced performs the traced run of a workload: micro-probes first,
// then an untraced repetition for reference, then a repetition with a
// span around every call into a layer, then whatever else the workload's
// per-layer metrics need (a serial re-run, the raw pool, the third door).
// End-to-end numbers are never taken from here.
func runTraced(ctx context.Context, o runOpts) (result, detail, error) {
	calib := calibrate()
	m, err := runProbes(ctx, o.Seed)
	if err != nil {
		return result{}, detail{}, fmt.Errorf("probes: %w", err)
	}

	// Reference repetition, tracing off.
	d, pts, chk, err := open(ctx, o, nil)
	if err != nil {
		return result{}, detail{}, fmt.Errorf("set-up: %w", err)
	}
	if m["core.plan_replay_allocs"] != 0 {
		chk.failed++
		chk.note("core.plan_replay_allocs = %v, want 0: plan replay allocates", m["core.plan_replay_allocs"])
	}
	ref, err := d.pass(ctx)
	if cerr := d.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, detail{}, err
	}
	chk.check("untraced repetition", &ref)

	// Traced repetition.
	rec := newRecorder(16*len(pts) + 1024)
	var tr rep
	switch o.Workload.Door {
	case doorDirect:
		tr, err = traceDirect(ctx, o, pts, rec, m, chk)
	case doorLocal:
		tr, err = traceLocal(ctx, pts, rec, m, chk, ref.Wall)
	case doorFleet:
		tr, err = traceFleet(ctx, pts, rec, m, chk, ref.Wall)
	}
	if err != nil {
		return result{}, detail{}, err
	}

	m["metrics.accepted_load_sum"] = tr.Sums.AcceptedLoad
	m["metrics.latency_sum_cyc"] = tr.Sums.LatencyCycles
	m["metrics.fault_drops"] = float64(tr.Sums.FaultDrops)
	m["metrics.burst_drain_cyc"] = float64(tr.Sums.BurstDrain)
	m["host.trace_overhead_frac"] = tr.Wall/ref.Wall - 1
	m["host.calib_ns"] = (calib + calibrate()) / 2
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["host.gc_pause_ms"] = float64(ms.PauseTotalNs) / 1e6
	m["host.num_gc"] = float64(ms.NumGC)

	out, err := outDir()
	if err != nil {
		return result{}, detail{}, err
	}
	if err := writeTrace(filepath.Join(out, "trace-"+o.Workload.Name+".json"), o.Workload.Name, o.Seed, rec); err != nil {
		return result{}, detail{}, err
	}
	if n := rec.dropped.Load(); n > 0 {
		chk.failed++
		chk.note("trace: %d spans did not fit the recorder", n)
	}

	res := result{
		Correct: chk.failed == 0, Attempted: chk.attempts, Failed: chk.failed,
		Metrics: make(map[string]value, len(perLayer)),
	}
	for _, def := range perLayer {
		res.Metrics[def.Name] = value{m[def.Name], def.Unit}
	}
	det := detail{
		Workload: o.Workload.Name, Seed: o.Seed, Reps: 2, Points: len(pts),
		ConfigHash: configListHash(pts), Golden: chk.goldenVerdict(), Notes: chk.notes,
	}
	return res, det, nil
}

// spanMetrics derives the per-point layer budget from a trace's prepare
// and step spans. laneSeconds is the time the lanes had: the share
// metrics say how much of it each layer used.
func spanMetrics(m map[string]float64, tot map[string]spanTotals, r *rep, laneSeconds float64) {
	prep, step := tot["prepare"], tot["step"]
	if prep.Count > 0 {
		m["dragonfly.prepare_ms"] = float64(prep.Total) / 1e6 / float64(prep.Count)
		m["dragonfly.prepare_share"] = float64(prep.Total) / 1e9 / laneSeconds
	}
	if step.Count > 0 {
		m["engine.step_share"] = float64(step.Total) / 1e9 / laneSeconds
		m["engine.ns_per_router_cycle"] = float64(step.Total) / float64(r.RtrCyc)
		m["engine.ns_per_phit"] = float64(step.Total) / float64(r.Phits)
	}
}

// pointProbes times Validate and the store key of every point of a
// campaign, before the campaign is submitted.
func pointProbes(m map[string]float64, pts []exp.Point, key func(dragonfly.Config) string) error {
	var validate, keying time.Duration
	for _, p := range pts {
		t0 := time.Now()
		err := p.Config.Validate()
		t1 := time.Now()
		probeSink += len(key(p.Config))
		validate, keying = validate+t1.Sub(t0), keying+time.Since(t1)
		if err != nil {
			return err
		}
	}
	m["dragonfly.validate_us"] = float64(validate) / 1e3 / float64(len(pts))
	m["dragonfly.canonical_key_us"] = float64(keying) / 1e3 / float64(len(pts))
	return nil
}

// spanPointMetrics reads the same two metrics off the direct door's
// validate and key spans.
func spanPointMetrics(m map[string]float64, tot map[string]spanTotals) {
	if v := tot["validate"]; v.Count > 0 {
		m["dragonfly.validate_us"] = float64(v.Total) / 1e3 / float64(v.Count)
	}
	if k := tot["key"]; k.Count > 0 {
		m["dragonfly.canonical_key_us"] = float64(k.Total) / 1e3 / float64(k.Count)
	}
}

// traceDirect is the traced repetition of a direct-door workload.
func traceDirect(ctx context.Context, o runOpts, pts []exp.Point, rec *recorder, m map[string]float64, chk *checker) (rep, error) {
	dir, err := tempDir("scratch")
	if err != nil {
		return rep{}, err
	}
	defer os.RemoveAll(dir)
	scratch, err := exp.OpenCache(dir)
	if err != nil {
		return rep{}, err
	}
	if err := warmUp(o.Seed); err != nil {
		return rep{}, err
	}
	d := &directDoor{pts: pts}
	tr, err := d.tracedPass(ctx, rec, scratch)
	if err != nil {
		return tr, err
	}
	chk.check("traced repetition", &tr)

	var doorSeconds float64 // Prepare + RunContext only: the door's own time
	for _, ms := range tr.PointMS {
		doorSeconds += ms / 1e3
	}
	tot := totalsByName(rec.recorded())
	spanMetrics(m, tot, &tr, doorSeconds)
	spanPointMetrics(m, tot)
	n := float64(len(pts))
	m["dragonfly.prepare_alloc_kb"] = float64(tr.PrepAlloc) / 1024 / n
	m["engine.step_allocs_per_point"] = float64(tr.StepMallocs) / n
	m["engine.step_alloc_kb_per_point"] = float64(tr.StepAlloc) / 1024 / n
	if w := tr.FamilyWall[familySparse]; w > 0 {
		m["engine.sparse_cycles_per_s"] = float64(tr.FamilyCycles[familySparse]) / w
	}
	if w := tr.FamilyWall[familyFaulted]; w > 0 {
		m["engine.faulted_cycles_per_s"] = float64(tr.FamilyCycles[familyFaulted]) / w
	}
	if o.Workload.Name == "scale_h8" {
		if err := traceSerial(ctx, pts[0], m, chk, float64(tot["step"].Total)/1e9); err != nil {
			return tr, err
		}
	}
	return tr, nil
}

// traceSerial re-runs the scale point at Workers: 1, back to back with the
// L-worker traced repetition whose stepping took parallelStep seconds.
func traceSerial(ctx context.Context, p exp.Point, m map[string]float64, chk *checker, parallelStep float64) error {
	serial := p
	serial.Config.Workers = 1
	sim, err := dragonfly.Prepare(serial.Config)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := sim.RunContext(ctx)
	wall := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	m["engine.serial_cycles_per_s"] = float64(sim.Cycles()) / wall
	m["engine.worker_speedup"] = wall / parallelStep

	// The live heap with the simulator still reachable: the resident
	// cost of the network state.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(sim)
	m["engine.heap_live_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	m["engine.heap_kb_per_node"] = float64(ms.HeapAlloc) / 1024 / float64(res.Nodes)

	// Same record whatever the worker count: the original point, the
	// serial result.
	dg, err := recordDigest(0, p, res)
	if err != nil {
		return err
	}
	if n := mismatches([]string{dg}, chk.first); n > 0 {
		chk.failed += n
		chk.note("scale point differs between Workers: 1 and Workers: %d", p.Config.Workers)
	}
	return nil
}

// traceRawPool runs the raw pool and derives a door's orchestration tax
// from its untraced cold wall.
func traceRawPool(ctx context.Context, pts []exp.Point, chk *checker, coldWall float64) (rawWall, taxFrac, stepSeconds float64, err error) {
	rawWall, stepNS, jsonl, err := rawPool(ctx, pts)
	if err != nil {
		return 0, 0, 0, err
	}
	chk.compare("raw pool", jsonl)
	return rawWall, coldWall/rawWall - 1, float64(stepNS) / 1e9, nil
}

// traceLocal is the traced repetition of campaign_local.
func traceLocal(ctx context.Context, pts []exp.Point, rec *recorder, m map[string]float64, chk *checker, coldWall float64) (rep, error) {
	d, err := openLocal(pts, rec)
	if err != nil {
		return rep{}, err
	}
	defer d.close() //nolint:errcheck // scratch directory
	if err := pointProbes(m, pts, d.cache.Key); err != nil {
		return rep{}, err
	}
	tr, err := d.pass(ctx)
	if err != nil {
		return tr, err
	}
	chk.check("traced repetition", &tr)
	spanMetrics(m, totalsByName(rec.recorded()), &tr, tr.Wall*float64(lanes()))

	distinct, _ := campaignCounts(pts)
	hits, misses := d.cache.Stats()
	m["exp.store_hits"], m["exp.store_misses"] = float64(hits), float64(misses)
	m["exp.executed"] = float64(len(tr.PointMS))
	m["exp.served"] = float64(hits) // on this door, served without simulating means a cache hit

	rawWall, tax, _, err := traceRawPool(ctx, pts, chk, coldWall)
	if err != nil {
		return tr, err
	}
	m["exp.tax_frac"] = tax
	m["exp.tax_ms_per_point"] = (coldWall - rawWall) * 1e3 / float64(distinct)
	m["exp.run_overhead_us"], err = runOverhead(ctx, pts)
	return tr, err
}

// traceFleet is the traced repetition of campaign_fleet, followed by the
// raw pool and by the same campaign through dragonsrv-local.
func traceFleet(ctx context.Context, pts []exp.Point, rec *recorder, m map[string]float64, chk *checker, coldWall float64) (rep, error) {
	d, err := openFleet(ctx, pts, lanes(), rec)
	if err != nil {
		return rep{}, err
	}
	defer d.close() //nolint:errcheck // drained below; scratch directory
	if err := pointProbes(m, pts, d.store.Key); err != nil {
		return rep{}, err
	}
	tr, err := d.pass(ctx)
	if err != nil {
		return tr, err
	}
	fc := d.counters
	chk.check("traced repetition", &tr)

	start := time.Now()
	jsonl, err := d.fetchResults(ctx, fc.CampaignID)
	if err != nil {
		return tr, err
	}
	m["srv.results_fetch_ms"] = float64(time.Since(start)) / 1e6
	chk.compare("results.jsonl", jsonl)
	m["srv.first_record_ms"] = float64(fc.FirstRecord) / 1e6

	drain, err := d.drain()
	if err != nil {
		return tr, fmt.Errorf("drain: %w", err)
	}
	m["srv.drain_ms"] = float64(drain) / 1e6

	ms, in, out := d.mw.snapshot()
	if s := ms["submit"]; len(s) > 0 {
		m["srv.submit_ms"] = s[0] // the cold pass's submission
	}
	m["srv.http_claim_count"] = float64(len(ms["claim"]))
	m["srv.http_claim_ms_p50"] = median(ms["claim"])
	m["srv.http_results_count"] = float64(len(ms["results"]))
	m["srv.http_results_ms_p50"] = median(ms["results"])
	m["srv.http_heartbeat_count"] = float64(len(ms["heartbeat"]))
	m["srv.http_bytes_in"], m["srv.http_bytes_out"] = float64(in), float64(out)

	m["exp.store_hits"], m["exp.store_misses"] = float64(fc.Store.Hits), float64(fc.Store.Misses)
	m["exp.executed"], m["exp.served"] = float64(fc.Executed), float64(fc.Served)
	m["queue.requeues"] = float64(fc.Fleet.Requeues)
	m["queue.expired_leases"] = float64(fc.Fleet.ExpiredLeases)
	m["queue.late_discarded"] = float64(fc.Fleet.LateDiscarded)

	// The workers' simulations cannot be wrapped from outside, so the
	// engine's share of the fleet's lane time comes from the raw pool:
	// the same simulations, stepped on the same number of lanes.
	rawWall, tax, stepSeconds, err := traceRawPool(ctx, pts, chk, coldWall)
	if err != nil {
		return tr, err
	}
	m["srv.fleet_tax_frac"] = tax
	m["engine.step_share"] = stepSeconds / (coldWall * float64(lanes()))

	// The third front door: the coordinator simulates with its own L
	// workers, no remote fleet.
	local, err := openFleet(ctx, pts, 0, nil)
	if err != nil {
		return tr, err
	}
	defer local.close() //nolint:errcheck // scratch service
	var buf bytes.Buffer
	start = time.Now()
	if _, err := local.client.Run(ctx, exp.Campaign{Name: "tiny", Points: pts}, exp.Options{JSONL: &buf}); err != nil {
		return tr, fmt.Errorf("dragonsrv-local: %w", err)
	}
	wall := time.Since(start).Seconds()
	chk.compare("dragonsrv-local", buf.Bytes())
	m["srv.local_points_per_s"] = float64(len(pts)) / wall
	m["srv.local_tax_frac"] = wall/rawWall - 1
	return tr, nil
}
