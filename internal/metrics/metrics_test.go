package metrics

import (
	"math"
	"math/rand"
	"testing"
)

func TestRecordAndDigest(t *testing.T) {
	var s Sheet
	s.Generated = 10
	s.Injected = 9
	s.InjectionLost = 1
	for i := 0; i < 4; i++ {
		s.RecordDelivery(0, -1, 8, int64(100+i*10), int64(90+i*10), 2, 1, 1, 0, 0)
	}
	r := Digest(&s, 100, 8, 0, 0)
	if r.Delivered != 4 {
		t.Fatalf("delivered = %d", r.Delivered)
	}
	// 4 packets * 8 phits over 100 cycles and 8 nodes.
	if want := 32.0 / 100 / 8; math.Abs(r.AcceptedLoad-want) > 1e-12 {
		t.Fatalf("accepted = %v, want %v", r.AcceptedLoad, want)
	}
	if want := 115.0; r.AvgTotalLatency != want {
		t.Fatalf("avg latency = %v, want %v", r.AvgTotalLatency, want)
	}
	if want := 105.0; r.AvgNetworkLatency != want {
		t.Fatalf("avg net latency = %v, want %v", r.AvgNetworkLatency, want)
	}
	if r.AvgLocalHops != 2 || r.AvgGlobalHops != 1 {
		t.Fatalf("hops %v/%v", r.AvgLocalHops, r.AvgGlobalHops)
	}
	if r.LocalMisrouteRate != 1 {
		t.Fatalf("local misroute rate %v", r.LocalMisrouteRate)
	}
}

func TestMerge(t *testing.T) {
	var a, b Sheet
	a.RecordDelivery(0, -1, 8, 100, 90, 1, 1, 0, 0, 0)
	b.RecordDelivery(0, -1, 8, 200, 180, 3, 2, 1, 1, 2)
	b.Generated = 5
	a.Merge(&b)
	if a.Delivered != 2 || a.Generated != 5 {
		t.Fatalf("merge lost counters: %+v", a)
	}
	if a.TotalLatencySum != 300 {
		t.Fatalf("latency sum %v", a.TotalLatencySum)
	}
}

func TestReset(t *testing.T) {
	var s Sheet
	s.RecordDelivery(0, -1, 8, 50, 40, 1, 0, 0, 0, 0)
	s.Reset()
	if s.Delivered != 0 || s.TotalLatencySum != 0 {
		t.Fatalf("reset incomplete: %+v", s)
	}
	if got := s.LatencyPercentile(50); !math.IsNaN(got) {
		t.Fatalf("percentile of empty sheet = %v, want NaN", got)
	}
}

func TestPercentiles(t *testing.T) {
	var s Sheet
	// 100 packets with latencies 16, 32, ..., 1600: well within range.
	for i := 1; i <= 100; i++ {
		s.RecordDelivery(0, -1, 1, int64(16*i), 0, 0, 0, 0, 0, 0)
	}
	p50 := s.LatencyPercentile(50)
	if p50 < 700 || p50 > 900 {
		t.Fatalf("p50 = %v, want about 800", p50)
	}
	p99 := s.LatencyPercentile(99)
	if p99 < 1500 || p99 > 1700 {
		t.Fatalf("p99 = %v, want about 1600", p99)
	}
}

func TestPercentileOverflow(t *testing.T) {
	var s Sheet
	s.RecordDelivery(0, -1, 1, latencyMax*2, 0, 0, 0, 0, 0, 0)
	if got := s.LatencyPercentile(50); !math.IsInf(got, 1) {
		t.Fatalf("overflow percentile = %v, want +Inf", got)
	}
}

func TestDigestEmptyWindow(t *testing.T) {
	var s Sheet
	r := Digest(&s, 0, 0, 0, 0)
	if r.AcceptedLoad != 0 || r.AvgTotalLatency != 0 {
		t.Fatalf("digest of empty sheet: %+v", r)
	}
}

func TestLinkUtilization(t *testing.T) {
	var s Sheet
	s.LocalLinkPhits = 500
	s.GlobalLinkPhits = 300
	r := Digest(&s, 100, 1, 10, 3)
	if r.LocalLinkUtil != 0.5 {
		t.Fatalf("local util %v", r.LocalLinkUtil)
	}
	if r.GlobalLinkUtil != 1.0 {
		t.Fatalf("global util %v", r.GlobalLinkUtil)
	}
}

func TestWindowsCollectAndDigest(t *testing.T) {
	var s Sheet
	s.Configure(100, 0)
	s.RecordInjected(10, -1)
	s.RecordInjected(150, -1)
	s.RecordInjectionLost(160, -1)
	s.RecordDelivery(50, -1, 8, 40, 30, 1, 1, 1, 0, 0)
	s.RecordDelivery(120, -1, 8, 80, 70, 1, 1, 0, 1, 0)
	s.RecordDelivery(130, -1, 8, 120, 110, 1, 1, 0, 0, 0)

	tl := s.Timeline(250, 4)
	if tl == nil || tl.WindowCycles != 100 {
		t.Fatalf("timeline %+v", tl)
	}
	if len(tl.Windows) != 3 {
		t.Fatalf("%d windows, want 3 (the timeline covers all of totalCycles)", len(tl.Windows))
	}
	w0, w1 := tl.Windows[0], tl.Windows[1]
	if w0.Start != 0 || w0.End != 100 || w1.Start != 100 || w1.End != 200 {
		t.Fatalf("window spans [%d,%d) [%d,%d)", w0.Start, w0.End, w1.Start, w1.End)
	}
	if w2 := tl.Windows[2]; w2.Start != 200 || w2.End != 250 || w2.Delivered != 0 || w2.AcceptedLoad != 0 {
		t.Fatalf("padded quiet window %+v", w2)
	}
	if w0.Delivered != 1 || w1.Delivered != 2 {
		t.Fatalf("deliveries %d/%d", w0.Delivered, w1.Delivered)
	}
	if w0.Generated != 1 || w1.Generated != 2 || w1.InjectionLost != 1 {
		t.Fatalf("generation counts %d/%d lost %d", w0.Generated, w1.Generated, w1.InjectionLost)
	}
	// 8 phits over a 100-cycle window and 4 nodes.
	if want := 8.0 / 100 / 4; math.Abs(w0.AcceptedLoad-want) > 1e-12 {
		t.Fatalf("window accepted %v, want %v", w0.AcceptedLoad, want)
	}
	if w1.AvgTotalLatency != 100 {
		t.Fatalf("window avg latency %v, want 100", w1.AvgTotalLatency)
	}
	if w0.LocalMisrouteRate != 1 || w1.GlobalMisrouteRate != 0.5 {
		t.Fatalf("window misroute rates %v/%v", w0.LocalMisrouteRate, w1.GlobalMisrouteRate)
	}
	if w1.P99Latency <= 0 || w1.P99Latency > latencyMax {
		t.Fatalf("window p99 %v out of range", w1.P99Latency)
	}
}

func TestWindowsLastWindowClamped(t *testing.T) {
	var s Sheet
	s.Configure(100, 0)
	s.RecordDelivery(130, -1, 10, 40, 30, 0, 0, 0, 0, 0)
	tl := s.Timeline(150, 1)
	if got := tl.Windows[1].End; got != 150 {
		t.Fatalf("last window ends at %d, want the run end 150", got)
	}
	// 10 phits over the 50-cycle partial window.
	if want := 10.0 / 50; math.Abs(tl.Windows[1].AcceptedLoad-want) > 1e-12 {
		t.Fatalf("partial-window accepted %v, want %v", tl.Windows[1].AcceptedLoad, want)
	}
}

func TestWindowsSurviveResetAndMerge(t *testing.T) {
	var a, b Sheet
	a.Configure(100, 2)
	b.Configure(100, 2)
	a.RecordDelivery(50, 0, 8, 40, 30, 0, 0, 0, 0, 0)
	a.Reset() // warmup boundary: run counters clear, windows stay
	if a.Delivered != 0 {
		t.Fatal("reset kept run counters")
	}
	b.RecordDelivery(250, 1, 8, 60, 50, 0, 0, 0, 0, 0)
	a.Merge(&b)
	tl := a.Timeline(300, 1)
	if len(tl.Windows) != 3 {
		t.Fatalf("%d windows after merge, want 3", len(tl.Windows))
	}
	if tl.Windows[0].Delivered != 1 || tl.Windows[2].Delivered != 1 {
		t.Fatalf("merged windows lost deliveries: %+v", tl.Windows)
	}
	ds := a.PhaseDigests([]PhaseInfo{
		{Label: "a", Nodes: 1, Start: 0, Duration: 150},
		{Label: "b", Nodes: 1, Start: 150},
	}, 300)
	if len(ds) != 2 || ds[0].Delivered != 1 || ds[1].Delivered != 1 {
		t.Fatalf("phase digests %+v", ds)
	}
	if ds[0].End != 150 || ds[1].End != 300 {
		t.Fatalf("phase spans end at %d/%d, want 150/300", ds[0].End, ds[1].End)
	}
}

func TestPhaseDigestRates(t *testing.T) {
	var s Sheet
	s.Configure(0, 1)
	s.RecordInjected(0, 0)
	s.RecordInjected(0, 0)
	s.RecordInjectionLost(5, 0)
	s.RecordDelivery(90, 0, 10, 50, 40, 2, 1, 1, 1, 0)
	ds := s.PhaseDigests([]PhaseInfo{{Label: "x", Nodes: 2, Start: 0, Duration: 100}}, 400)
	d := ds[0]
	if d.Generated != 3 || d.InjectionLost != 1 || d.Delivered != 1 {
		t.Fatalf("digest counters %+v", d)
	}
	// 10 phits over the 100-cycle phase span and 2 nodes.
	if want := 10.0 / 100 / 2; math.Abs(d.AcceptedLoad-want) > 1e-12 {
		t.Fatalf("phase accepted %v, want %v", d.AcceptedLoad, want)
	}
	if d.AvgTotalLatency != 50 || d.AvgNetworkLatency != 40 {
		t.Fatalf("phase latencies %v/%v", d.AvgTotalLatency, d.AvgNetworkLatency)
	}
	if d.LocalMisrouteRate != 1 || d.GlobalMisrouteRate != 1 {
		t.Fatalf("phase misroute rates %v/%v", d.LocalMisrouteRate, d.GlobalMisrouteRate)
	}
}

// TestFaultDropAccounting: fault drops land in the run counters, the
// covering timeline window, and the generating phase's digest, and they
// survive Merge like every other counter.
func TestFaultDropAccounting(t *testing.T) {
	var s Sheet
	s.Configure(100, 2)
	s.RecordInjected(10, 0)
	s.RecordInjected(20, 1)
	s.RecordFaultDrop(150, 0)
	s.RecordFaultDrop(250, 1)
	s.RecordFaultDrop(250, 1)

	var other Sheet
	other.Configure(100, 2)
	other.RecordFaultDrop(50, 0)
	s.Merge(&other)

	if s.FaultDrops != 4 {
		t.Fatalf("FaultDrops = %d, want 4", s.FaultDrops)
	}
	tl := s.Timeline(300, 10)
	if tl == nil || len(tl.Windows) != 3 {
		t.Fatalf("timeline %+v", tl)
	}
	if got := []int64{tl.Windows[0].FaultDrops, tl.Windows[1].FaultDrops, tl.Windows[2].FaultDrops}; got[0] != 1 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("window fault drops %v, want [1 1 2]", got)
	}
	ds := s.PhaseDigests([]PhaseInfo{{Label: "a", Nodes: 10}, {Label: "b", Nodes: 10}}, 300)
	if ds[0].FaultDrops != 2 || ds[1].FaultDrops != 2 {
		t.Fatalf("phase fault drops %d/%d, want 2/2", ds[0].FaultDrops, ds[1].FaultDrops)
	}
	r := Digest(&s, 300, 10, 1, 1)
	if r.FaultDrops != 4 {
		t.Fatalf("digested FaultDrops = %d, want 4", r.FaultDrops)
	}

	// Reset clears the run counter but, like deliveries, the windows keep
	// their whole-run view.
	s.Reset()
	if s.FaultDrops != 0 {
		t.Fatal("Reset kept the run counter")
	}
	if tl := s.Timeline(300, 10); tl.Windows[2].FaultDrops != 2 {
		t.Fatal("Reset wiped the window accumulators")
	}
}

// event is one Record* call of a synthetic run.
type event struct {
	kind                     int // 0 delivery, 1 injected, 2 fault drop, 3 injection lost, 4 suppressed
	cycle                    int64
	phase                    int
	totalLat, netLat         int64
	lHops, gHops, lMis, gMis int
}

// eventStream draws n events of all five kinds over cycles [0, cycles)
// and phases [0, phases), with integer latencies so every float sum is
// exact whatever order it is added in.
func eventStream(seed int64, n int, cycles int64, phases int) []event {
	r := rand.New(rand.NewSource(seed))
	evs := make([]event, n)
	for i := range evs {
		lat := int64(20 + r.Intn(3000))
		evs[i] = event{
			kind: r.Intn(5), cycle: r.Int63n(cycles), phase: r.Intn(phases),
			totalLat: lat, netLat: lat - int64(r.Intn(20)),
			lHops: r.Intn(4), gHops: r.Intn(2), lMis: r.Intn(2), gMis: r.Intn(2),
		}
	}
	return evs
}

func (s *Sheet) record(e *event) {
	switch e.kind {
	case 0:
		s.RecordDelivery(e.cycle, e.phase, 8, e.totalLat, e.netLat, e.lHops, e.gHops, e.lMis, e.gMis, 0)
	case 1:
		s.RecordInjected(e.cycle, e.phase)
	case 2:
		s.RecordFaultDrop(e.cycle, e.phase)
	case 3:
		s.RecordInjectionLost(e.cycle, e.phase)
	default:
		s.RecordSuppressed(e.cycle, e.phase)
	}
}

// viewTotals sums the sheet's windows and its phases.
func viewTotals(s *Sheet) (windows, phases counts) {
	for i := range s.windows {
		windows.add(&s.windows[i].counts)
	}
	for i := range s.phaseCells {
		phases.add(&s.phaseCells[i])
	}
	return windows, phases
}

// TestSheetViewsAgree: the run totals, the Timeline windows and the phase
// cells are three cuts of one accounting, so every counter summed over
// the windows and over the phases equals the run total — for a sheet fed
// directly and for a merge of two.
func TestSheetViewsAgree(t *testing.T) {
	const cycles, width, phases = 5000, 250, 6
	sheets := make([]Sheet, 2)
	for i := range sheets {
		s := &sheets[i]
		s.Configure(width, phases)
		evs := eventStream(int64(i+1), 20000, cycles, phases)
		for j := range evs {
			s.record(&evs[j])
		}
		if s.Generated != s.Injected+s.InjectionLost+s.Suppressed || s.Delivered == 0 || s.NetworkLatencySum == 0 {
			t.Fatalf("sheet %d: degenerate stream %+v", i, s.counts)
		}
	}
	want := sheets[0].counts
	want.add(&sheets[1].counts)
	check := func(name string, s *Sheet) {
		t.Helper()
		w, p := viewTotals(s)
		if w != s.counts || p != s.counts {
			t.Fatalf("%s: run %+v\nwindows %+v\nphases %+v", name, s.counts, w, p)
		}
	}
	check("sheet 0", &sheets[0])
	check("sheet 1", &sheets[1])
	sheets[0].Merge(&sheets[1])
	check("merged", &sheets[0])
	if sheets[0].counts != want {
		t.Fatalf("merged run %+v, want %+v", sheets[0].counts, want)
	}
}

// BenchmarkRecord times one Record* call of the TestSheetViewsAgree
// stream, with windows and phases on and with both off.
func BenchmarkRecord(b *testing.B) {
	evs := eventStream(1, 1<<14, 5000, 6)
	for _, bc := range []struct {
		name   string
		width  int64
		phases int
	}{{"windows+phases", 250, 6}, {"plain", 0, 0}} {
		b.Run(bc.name, func(b *testing.B) {
			s := new(Sheet)
			s.Configure(bc.width, bc.phases)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.record(&evs[i&(len(evs)-1)])
			}
		})
	}
}
