package sweep

import (
	"errors"
	"math"
	"strings"
	"testing"

	dragonfly "repro"
)

func sampleSeries() []Series {
	return []Series{{
		Name: "RLM",
		Points: []Point{
			{X: 0.1, Result: dragonfly.Result{AcceptedLoad: 0.1, AvgTotalLatency: 120, AvgNetworkLatency: 95, ConsumptionCycles: 4000}},
			{X: 0.2, Result: dragonfly.Result{AcceptedLoad: 0.19, AvgTotalLatency: 130, AvgNetworkLatency: 101, ConsumptionCycles: 8000}},
		},
	}}
}

func TestMetricValues(t *testing.T) {
	p := sampleSeries()[0].Points[0]
	cases := []struct {
		metric Metric
		want   float64
	}{
		{AcceptedLoad, 0.1},
		{TotalLatency, 120},
		{NetworkLatency, 95},
		{ConsumptionTime, 4}, // kilocycles
	}
	for _, c := range cases {
		if got := c.metric.value(p); got != c.want {
			t.Fatalf("%s value = %v, want %v", c.metric, got, c.want)
		}
	}
	if v := Metric(99).value(p); !math.IsNaN(v) {
		t.Fatalf("unknown metric value = %v, want NaN", v)
	}
}

// TestFailedPointsRenderAsMissing guards against failed points leaking
// into figure data as plausible-looking zeros.
func TestFailedPointsRenderAsMissing(t *testing.T) {
	series := []Series{{
		Name: "OLM",
		Points: []Point{
			{X: 0.1, Result: dragonfly.Result{AcceptedLoad: 0.1}},
			{X: 0.3, Err: errors.New("boom")},
		},
	}}
	if v := AcceptedLoad.value(series[0].Points[1]); !math.IsNaN(v) {
		t.Fatalf("failed point value = %v, want NaN", v)
	}
	var dat strings.Builder
	if err := WriteDAT(&dat, "load", AcceptedLoad, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dat.String(), "0.3\tNaN") {
		t.Fatalf("failed point not NaN in DAT:\n%s", dat.String())
	}
	var md strings.Builder
	if err := WriteMarkdown(&md, "load", AcceptedLoad, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "| error |") {
		t.Fatalf("failed point not marked in markdown:\n%s", md.String())
	}
}

func TestMetricStrings(t *testing.T) {
	for _, m := range []Metric{AcceptedLoad, TotalLatency, NetworkLatency, ConsumptionTime} {
		if m.String() == "unknown" {
			t.Fatalf("metric %d has no name", m)
		}
	}
	if Metric(99).String() != "unknown" {
		t.Fatal("out-of-range metric must name itself unknown")
	}
}

func TestWriteDAT(t *testing.T) {
	var dat strings.Builder
	if err := WriteDAT(&dat, "Offered load", AcceptedLoad, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	got := dat.String()
	for _, want := range []string{
		"# x: Offered load",
		"# y: Accepted load (phits/(node*cycle))",
		"# series: RLM",
		"0.1\t0.1",
		"0.2\t0.19",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("DAT output missing %q:\n%s", want, got)
		}
	}
}

func TestWriteMarkdown(t *testing.T) {
	var md strings.Builder
	if err := WriteMarkdown(&md, "load", TotalLatency, sampleSeries()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| load | RLM |", "|---|---|", "| 0.1 | 120 |", "| 0.2 | 130 |"} {
		if !strings.Contains(md.String(), want) {
			t.Fatalf("markdown missing %q:\n%s", want, md.String())
		}
	}
}

func TestWriteMarkdownEmptyAndRagged(t *testing.T) {
	var md strings.Builder
	if err := WriteMarkdown(&md, "x", AcceptedLoad, nil); err != nil {
		t.Fatal(err)
	}
	if md.Len() != 0 {
		t.Fatalf("empty series produced output: %q", md.String())
	}

	// A short second series must render "-" placeholders, not panic.
	ragged := append(sampleSeries(), Series{Name: "OLM", Points: []Point{
		{X: 0.1, Result: dragonfly.Result{AcceptedLoad: 0.11}},
	}})
	md.Reset()
	if err := WriteMarkdown(&md, "load", AcceptedLoad, ragged); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(md.String()), "\n")
	last := lines[len(lines)-1]
	if !strings.HasSuffix(last, " - |") {
		t.Fatalf("ragged series row lacks placeholder: %q", last)
	}
}

func TestWriteMarkdownAnnotatesDeadlock(t *testing.T) {
	series := []Series{{
		Name: "OFAR",
		Points: []Point{
			{X: 0.5, Result: dragonfly.Result{AcceptedLoad: 0.02, Deadlock: true}},
		},
	}}
	var md strings.Builder
	if err := WriteMarkdown(&md, "load", AcceptedLoad, series); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "(deadlock!)") {
		t.Fatalf("deadlocked point not annotated:\n%s", md.String())
	}
}

func TestWriteTimelineDAT(t *testing.T) {
	tl := &dragonfly.Timeline{WindowCycles: 100, Windows: []dragonfly.Window{
		{Start: 0, End: 100, AcceptedLoad: 0.2, AvgTotalLatency: 120, P99Latency: 256},
		{Start: 100, End: 150, AcceptedLoad: 0.1, AvgTotalLatency: 300, P99Latency: 512},
	}}
	var buf strings.Builder
	err := WriteTimelineDAT(&buf, WindowAccepted, []TimelineSeries{
		{Name: "OLM", Timeline: tl},
		{Name: "broken", Timeline: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# x: Cycle", "# series: OLM", "# series: broken",
		"50\t0.2", "125\t0.1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline dat missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteTimelineDAT(&buf, WindowLatency, []TimelineSeries{{Name: "x", Timeline: tl}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "50\t120") {
		t.Fatalf("latency metric not rendered:\n%s", buf.String())
	}
}
