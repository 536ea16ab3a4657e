package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// Generators are pure functions of the seed: the same seed gives the same
// configs, another seed gives others.
func TestGeneratorsArePureFunctionsOfSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := w.points(7, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, _ := w.points(7, false)
		c, _ := w.points(8, false)
		if configListHash(a) != configListHash(b) {
			t.Errorf("%s: seed 7 generated two different point lists", w.Name)
		}
		if configListHash(a) == configListHash(c) {
			t.Errorf("%s: seeds 7 and 8 generated the same point list", w.Name)
		}
	}
}

func TestWorkloadSizes(t *testing.T) {
	want := map[string]int{
		"lowload_small": 240, "saturation_small": 48, "scale_h8": 1,
		"transient_faults": 12, "campaign_local": 2112, "campaign_fleet": 2112,
	}
	for _, w := range workloads {
		pts, err := w.points(1, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(pts) != want[w.Name] {
			t.Errorf("%s: %d points, want %d", w.Name, len(pts), want[w.Name])
		}
	}
	pts, _ := campaignPoints(1, false)
	if d, r := campaignCounts(pts); d != 1920 || r != 192 {
		t.Errorf("campaign: %d distinct + %d repeats, want 1920 + 192", d, r)
	}
}

// BENCHMARK.json and the tables in spec.go say the same thing, and every
// name is one the driver accepts.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if want := benchmarkSpec(); !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: bash benchmark/run.sh -spec > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not of the accepted form", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, at most 200 fit", w.Name, len(w.Why))
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is not of the accepted form", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != lower {
		t.Error("setup_s (s, lower) is not the first end-to-end metric")
	}
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

func emittedNames(r result) []string {
	var out []string
	for n := range r.Metrics {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// A test-sized smoke of all six workloads: every run emits exactly the
// declared end-to-end metrics, none of them zero; running a workload
// twice gives the same outputs; and the two campaign doors agree.
func TestSmokeAllWorkloads(t *testing.T) {
	ctx := context.Background()
	outputs := map[string]string{}
	for _, w := range workloads {
		o := runOpts{Workload: w, Seed: 3, Small: true}
		res, det, err := runWorkload(ctx, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v, %d of %d failed: %v", w.Name, res.Correct, res.Failed, res.Attempted, det.Notes)
		}
		if got, want := emittedNames(res), metricNames(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: emitted %v, declared %v", w.Name, got, want)
		}
		for n, v := range res.Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive reading", w.Name, n, v.Value)
			}
		}
		_, again, err := runWorkload(ctx, o)
		if err != nil {
			t.Fatalf("%s: second run: %v", w.Name, err)
		}
		if det.Outputs != again.Outputs {
			t.Errorf("%s: two runs of seed 3 produced different outputs", w.Name)
		}
		outputs[w.Name] = det.Outputs
	}
	if outputs["campaign_local"] != outputs["campaign_fleet"] {
		t.Error("campaign_local and campaign_fleet produced different canonical JSONL")
	}
}

// The traced run of each door emits exactly the declared per-layer
// metrics and passes its cross-checks (the fleet's: raw pool, results.jsonl
// and dragonsrv-local byte-identical to the door under test).
func TestSmokeTraced(t *testing.T) {
	positive := map[string][]string{
		"lowload_small":  {"dragonfly.prepare_ms", "engine.step_share", "engine.step_allocs_per_point", "core.plan_replay_ns"},
		"campaign_local": {"exp.tax_ms_per_point", "exp.run_overhead_us", "exp.executed", "engine.step_share"},
		"campaign_fleet": {"srv.http_claim_count", "srv.local_points_per_s", "exp.executed", "srv.submit_ms"},
	}
	for name, want := range positive {
		w, _ := workloadByName(name)
		res, det, err := runWorkload(context.Background(), runOpts{Workload: w, Seed: 3, Small: true, Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: traced run incorrect: %v", name, det.Notes)
		}
		if got, declared := emittedNames(res), metricNames(perLayer); !reflect.DeepEqual(got, declared) {
			t.Errorf("%s: emitted %v, declared %v", name, got, declared)
		}
		for _, n := range want {
			if res.Metrics[n].Value <= 0 {
				t.Errorf("%s: %s = %v, want a positive reading", name, n, res.Metrics[n].Value)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "point", Start: 0, End: 100, Parent: -1},
		{Name: "prepare", Start: 10, End: 30, Parent: 0},
		{Name: "step", Start: 30, End: 90, Parent: 0},
		{Name: "lane", Start: 40, End: 70, Parent: 2},
		{Name: "lane", Start: 50, End: 80, Parent: 2},  // overlaps its sibling: counted once
		{Name: "late", Start: 95, End: 120, Parent: 0}, // outlives its parent: clipped
	}
	want := []int64{100 - 20 - 60 - 5, 20, 60 - 40, 30, 30, 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := totalsByName(spans)
	if l := tot["lane"]; l.Count != 2 || l.Total != 60 || l.Self != 60 {
		t.Errorf("lane totals = %+v", l)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	off.end(off.begin("x", -1, 0)) // tracing off: must not panic
	if len(off.recorded()) != 0 {
		t.Error("nil recorder recorded something")
	}
	r := newRecorder(2)
	a := r.begin("a", -1, 0)
	b := r.begin("b", a, 0)
	c := r.begin("c", a, 0)
	r.end(c)
	r.end(b)
	r.end(a)
	if c != -1 || r.dropped.Load() != 1 || len(r.recorded()) != 2 {
		t.Errorf("overflow: id %d, dropped %d, kept %d", c, r.dropped.Load(), len(r.recorded()))
	}
}

// The tail is the highest percentile with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{
		1: 0.5, 12: 0.5, 39: 0.5, 40: 0.75, 48: 0.75, 99: 0.75, 100: 0.90,
		199: 0.90, 200: 0.95, 240: 0.95, 999: 0.95, 1000: 0.99, 1920: 0.99, 10000: 0.999,
	} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 0.25); q != 1.75 {
		t.Errorf("q1 = %v", q)
	}
	if quantile(xs, 0) != 1 || quantile(xs, 1) != 4 {
		t.Error("min/max")
	}
}

func TestMismatches(t *testing.T) {
	if n := mismatches([]string{"a", "b", "c"}, []string{"a", "x"}); n != 2 {
		t.Errorf("mismatches = %d, want 2 (one differing, one extra)", n)
	}
}
