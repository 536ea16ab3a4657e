package main

import (
	"encoding/json"
	"fmt"
)

// The metric tables below are the single definition of what the benchmark
// emits. BENCHMARK.json repeats name, unit, direction and bound; a test
// fails when the two disagree.

const (
	lower  = "lower"
	higher = "higher"
)

// metricDef describes one metric. Bound is the share of the baseline's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which are never gated). Exact marks values that must repeat
// exactly between two runs of the same code and seed. Moves says which
// end-to-end metric, on which workload, the layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Exact  bool
	Moves  string
}

// endToEnd lists the gated metrics: what a user of the simulator and its
// campaign doors waits for or pays. All are host-side; sim_cycles_per_s
// and phits_per_s divide simulated work by host time. The tenth metric of
// the issue, failed_frac, is the failed/attempted pair of every result
// line: it is 0 on a healthy run, and a gated metric may never be 0.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "points_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: higher, Bound: 0.25},
	{Name: "phits_per_s", Unit: "phits/s", Better: higher, Bound: 0.25},
	{Name: "point_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "point_ms_tail", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "warm_points_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25},
	{Name: "alloc_mb", Unit: "MiB", Better: lower, Bound: 0.05},
}

// perLayer lists the probes of single layers, by module. A metric that a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// dragonfly: the public package.
	{Name: "dragonfly.validate_us", Unit: "us", Better: lower, Moves: "points_per_s @ campaign_*; ~0 @ saturation_small, scale_h8, transient_faults"},
	{Name: "dragonfly.canonical_key_us", Unit: "us", Better: lower, Moves: "warm_points_per_s @ campaign_*"},
	{Name: "dragonfly.prepare_ms", Unit: "ms", Better: lower, Moves: "points_per_s, alloc_mb @ lowload_small, campaign_*; set-up-like @ scale_h8; ~0 @ saturation_small"},
	{Name: "dragonfly.prepare_share", Unit: "ratio", Better: lower, Moves: "bounds what a faster Prepare can save on that workload"},
	{Name: "dragonfly.prepare_alloc_kb", Unit: "KiB", Better: lower, Moves: "alloc_mb @ lowload_small"},

	{Name: "topology.new_us_h3", Unit: "us", Better: lower, Moves: "dragonfly.prepare_ms @ lowload_small"},
	{Name: "topology.routetable_ms_h8", Unit: "ms", Better: lower, Moves: "dragonfly.prepare_ms @ scale_h8"},
	{Name: "topology.partition_us", Unit: "us", Better: lower, Moves: "dragonfly.prepare_ms @ transient_faults"},

	{Name: "core.tables_ms_h8", Unit: "ms", Better: lower, Moves: "dragonfly.prepare_ms @ scale_h8"},
	{Name: "core.plan_build_ns", Unit: "ns", Better: lower, Moves: "sim_cycles_per_s @ transient_faults (epoch invalidation); ~0 @ lowload_small"},
	{Name: "core.plan_replay_ns", Unit: "ns", Better: lower, Moves: "sim_cycles_per_s @ saturation_small; ~0 @ lowload_small"},
	{Name: "core.plan_replay_allocs", Unit: "count", Better: lower, Exact: true, Moves: "must be 0"},
	{Name: "core.route_ns", Unit: "ns", Better: lower, Moves: "build + replay over a throwaway plan; no engine path uses it per cycle"},

	{Name: "traffic.dest_ns", Unit: "ns", Better: lower, Moves: "sim_cycles_per_s @ lowload_small; ~0 @ saturation_small"},
	{Name: "traffic.generate_ns", Unit: "ns", Better: lower, Moves: "sim_cycles_per_s @ lowload_small (runs for every node every cycle)"},
	{Name: "rng.bernoulli_ns", Unit: "ns", Better: lower, Moves: "traffic.generate_ns"},

	{Name: "engine.step_share", Unit: "ratio", Better: lower, Moves: "bounds what a faster engine can save; smallest @ campaign_fleet"},
	{Name: "engine.ns_per_router_cycle", Unit: "ns", Better: lower, Moves: "sim_cycles_per_s @ direct-door workloads"},
	{Name: "engine.ns_per_phit", Unit: "ns", Better: lower, Moves: "phits_per_s @ direct-door workloads"},
	{Name: "engine.step_allocs_per_point", Unit: "count", Better: lower, Moves: "alloc_mb, point_ms_p50 @ lowload_small (first-touch rings)"},
	{Name: "engine.step_alloc_kb_per_point", Unit: "KiB", Better: lower, Moves: "alloc_mb @ lowload_small; ~0 share @ saturation_small"},
	{Name: "engine.serial_cycles_per_s", Unit: "cycles/s", Better: higher, Moves: "scale_h8 at Workers: 1"},
	{Name: "engine.worker_speedup", Unit: "ratio", Better: higher, Moves: "sim_cycles_per_s @ scale_h8 only; < L is barrier + imbalance"},
	{Name: "engine.heap_live_mb", Unit: "MiB", Better: lower, Moves: "peak_rss_mb @ scale_h8"},
	{Name: "engine.heap_kb_per_node", Unit: "KiB", Better: lower, Moves: "peak_rss_mb @ scale_h8"},
	{Name: "engine.sparse_cycles_per_s", Unit: "cycles/s", Better: higher, Moves: "sim_cycles_per_s @ transient_faults (fast-forward, barrier elision)"},
	{Name: "engine.faulted_cycles_per_s", Unit: "cycles/s", Better: higher, Moves: "sim_cycles_per_s @ transient_faults (fault epochs, stale view)"},

	{Name: "metrics.record_delivery_ns", Unit: "ns", Better: lower, Moves: "sim_cycles_per_s @ saturation_small"},
	{Name: "metrics.digest_us", Unit: "us", Better: lower, Moves: "points_per_s @ campaign_*"},
	{Name: "metrics.timeline_us", Unit: "us", Better: lower, Moves: "points_per_s @ transient_faults"},
	{Name: "metrics.accepted_load_sum", Unit: "phits/node/cyc", Better: higher, Exact: true, Moves: "simulated; must repeat exactly"},
	{Name: "metrics.latency_sum_cyc", Unit: "cycles", Better: lower, Exact: true, Moves: "simulated; must repeat exactly"},
	{Name: "metrics.fault_drops", Unit: "count", Better: lower, Exact: true, Moves: "simulated; must repeat exactly"},
	{Name: "metrics.burst_drain_cyc", Unit: "cycles", Better: lower, Exact: true, Moves: "simulated; must repeat exactly"},

	{Name: "exp.run_overhead_us", Unit: "us", Better: lower, Moves: "points_per_s @ campaign_local"},
	{Name: "exp.cache_get_us", Unit: "us", Better: lower, Moves: "warm_points_per_s @ campaign_local"},
	{Name: "exp.cache_put_us", Unit: "us", Better: lower, Moves: "points_per_s @ campaign_local"},
	{Name: "exp.store_get_us", Unit: "us", Better: lower, Moves: "warm_points_per_s @ campaign_fleet"},
	{Name: "exp.store_put_us", Unit: "us", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "exp.entry_bytes", Unit: "B", Better: lower, Moves: "exp.cache_put_us, exp.cache_get_us"},
	{Name: "exp.jsonl_record_us", Unit: "us", Better: lower, Moves: "points_per_s, warm_points_per_s @ campaign_*"},
	{Name: "exp.record_bytes", Unit: "B", Better: lower, Moves: "exp.jsonl_record_us, srv.http_bytes_out"},
	{Name: "exp.flights_do_ns", Unit: "ns", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "exp.store_hits", Unit: "count", Better: higher, Moves: "door correctness; exact @ campaign_local, store hit vs in-flight dedup is a race @ campaign_fleet"},
	{Name: "exp.store_misses", Unit: "count", Better: lower, Moves: "door correctness; one per simulation"},
	{Name: "exp.executed", Unit: "count", Better: lower, Exact: true, Moves: "door correctness; must not change"},
	{Name: "exp.served", Unit: "count", Better: higher, Exact: true, Moves: "door correctness; must not change"},
	{Name: "exp.tax_frac", Unit: "ratio", Better: lower, Moves: "points_per_s @ campaign_local (the orchestration tax)"},
	{Name: "exp.tax_ms_per_point", Unit: "ms", Better: lower, Moves: "points_per_s @ campaign_local"},

	{Name: "queue.enqueue_us", Unit: "us", Better: lower, Moves: "points_per_s @ campaign_fleet; ~0 @ campaign_local"},
	{Name: "queue.claim_us", Unit: "us", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "queue.complete_us", Unit: "us", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "queue.requeues", Unit: "count", Better: lower, Exact: true, Moves: "must be 0; nonzero voids the run"},
	{Name: "queue.expired_leases", Unit: "count", Better: lower, Exact: true, Moves: "must be 0; nonzero voids the run"},
	{Name: "queue.late_discarded", Unit: "count", Better: lower, Exact: true, Moves: "must be 0; nonzero voids the run"},

	{Name: "srv.submit_ms", Unit: "ms", Better: lower, Moves: "points_per_s, warm_points_per_s @ campaign_fleet"},
	{Name: "srv.first_record_ms", Unit: "ms", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "srv.results_fetch_ms", Unit: "ms", Better: lower, Moves: "context: a finished campaign's JSONL download"},
	{Name: "srv.http_claim_count", Unit: "count", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "srv.http_claim_ms_p50", Unit: "ms", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "srv.http_results_count", Unit: "count", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "srv.http_results_ms_p50", Unit: "ms", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "srv.http_heartbeat_count", Unit: "count", Better: lower, Moves: "context"},
	{Name: "srv.http_bytes_in", Unit: "B", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "srv.http_bytes_out", Unit: "B", Better: lower, Moves: "points_per_s, warm_points_per_s @ campaign_fleet"},
	{Name: "srv.fleet_tax_frac", Unit: "ratio", Better: lower, Moves: "points_per_s @ campaign_fleet"},
	{Name: "srv.local_points_per_s", Unit: "1/s", Better: higher, Moves: "the third front door: dragonsrv-local"},
	{Name: "srv.local_tax_frac", Unit: "ratio", Better: lower, Moves: "dragonsrv-local vs the raw pool"},
	{Name: "srv.drain_ms", Unit: "ms", Better: lower, Moves: "context: shutdown cost"},

	// host: context only, never compared.
	{Name: "host.calib_ns", Unit: "ns", Better: lower, Moves: "context: machine speed during the run"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: lower, Moves: "context"},
	{Name: "host.num_gc", Unit: "count", Better: lower, Moves: "context"},
	{Name: "host.trace_overhead_frac", Unit: "ratio", Better: lower, Moves: "context: traced wall / untraced wall - 1"},
}

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds): four to eight repetitions of every workload. The box this
// was sized on changes speed by a quarter for tens of seconds at a time;
// more repetitions per run is the only thing that narrows the spread.
const runSeconds = 20

// benchmarkFile is BENCHMARK.json's layout.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkSpec renders the tables above as BENCHMARK.json.
func benchmarkSpec() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, specWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, specMetric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, specMetric{d.Name, d.Unit, d.Better, nil})
	}
	return f
}

func printSpec() error {
	buf, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}
