// Package metrics collects and aggregates the statistics the paper reports:
// accepted load in phits/(node·cycle), average packet latency in cycles,
// plus supporting detail (latency percentiles, hop and misroute counts,
// link utilization, packet conservation counters).
//
// Collection is shard-friendly: the engine keeps one Sheet per worker and
// merges them at the end of the run, so the hot path never takes a lock.
// The run totals, each Timeline window and each workload phase are cuts
// of one packet accounting: they share one counter set, merged by one
// function and turned into rates by one, so a new counter is added once.
package metrics

import (
	"math"
	"slices"
)

// latencyBuckets is the number of linear histogram buckets; latencies at or
// beyond latencyMax fall in the overflow bucket.
const (
	latencyBuckets = 2048
	latencyMax     = 1 << 15
)

// windowBuckets is the per-window latency histogram resolution. Windows
// trade precision (latencyMax/windowBuckets = 128-cycle buckets) for a
// footprint small enough to keep one histogram per window per worker.
const windowBuckets = 256

// counts is the packet accounting every view of a run shares: the run
// totals (Sheet), each Timeline window and each workload phase keep one.
// A counter added here is merged and digested by all three at once.
type counts struct {
	Generated      int64 // packets created by the traffic process
	InjectionLost  int64 // generation events dropped: injection queue full
	Suppressed     int64 // generation events suppressed: source node parked
	Injected       int64 // packets accepted into an injection queue
	Delivered      int64 // packets fully consumed at their destination
	FaultDrops     int64 // packets discarded in-network: no surviving route
	PhitsDelivered int64

	// Latency sums, in cycles, over delivered packets.
	TotalLatencySum   float64 // generation -> delivery
	NetworkLatencySum float64 // injection -> delivery

	LocalMis  int64 // local misroutes of delivered packets
	GlobalMis int64 // global misroutes (Valiant detours) of delivered packets
}

// add adds o into c.
func (c *counts) add(o *counts) {
	c.Generated += o.Generated
	c.InjectionLost += o.InjectionLost
	c.Suppressed += o.Suppressed
	c.Injected += o.Injected
	c.Delivered += o.Delivered
	c.FaultDrops += o.FaultDrops
	c.PhitsDelivered += o.PhitsDelivered
	c.TotalLatencySum += o.TotalLatencySum
	c.NetworkLatencySum += o.NetworkLatencySum
	c.LocalMis += o.LocalMis
	c.GlobalMis += o.GlobalMis
}

// deliver accounts one delivered packet.
func (c *counts) deliver(phits int, totalLat, netLat int64, localMis, globalMis int) {
	c.Delivered++
	c.PhitsDelivered += int64(phits)
	c.TotalLatencySum += float64(totalLat)
	c.NetworkLatencySum += float64(netLat)
	c.LocalMis += int64(localMis)
	c.GlobalMis += int64(globalMis)
}

// rates derives the accepted load in phits/(node·cycle) over span cycles
// and nodes nodes, and the per-delivery latency and misroute averages.
// Each is zero where its divisor is, so digests serialize cleanly.
func (c *counts) rates(span int64, nodes int) (load, avgTotal, avgNet, localMis, globalMis float64) {
	if span > 0 && nodes > 0 {
		load = float64(c.PhitsDelivered) / float64(span) / float64(nodes)
	}
	if c.Delivered > 0 {
		d := float64(c.Delivered)
		avgTotal = c.TotalLatencySum / d
		avgNet = c.NetworkLatencySum / d
		localMis = float64(c.LocalMis) / d
		globalMis = float64(c.GlobalMis) / d
	}
	return
}

// windowCell accumulates one Timeline window. Cells are indexed by
// cycle/width from the start of the run (warmup included), so transient
// figures can show the warmup tail too.
type windowCell struct {
	counts
	latHist [windowBuckets + 1]int32
}

// p99 approximates the window's 99th-percentile latency as the upper bound
// of the covering bucket, clamped to latencyMax so the value stays finite
// (and JSON-serializable) even for the overflow bucket.
func (c *windowCell) p99() float64 {
	if c.Delivered == 0 {
		return 0
	}
	target := (99*c.Delivered + 99) / 100
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range c.latHist {
		cum += int64(n)
		if cum >= target {
			if i >= windowBuckets {
				return latencyMax
			}
			return float64((i + 1) * latencyMax / windowBuckets)
		}
	}
	return latencyMax
}

// Sheet accumulates raw counters during a measurement window.
// The zero value is ready to use.
type Sheet struct {
	counts

	LocalHops  int64 // local-link hops of delivered packets
	GlobalHops int64 // global-link hops of delivered packets
	EscapeHops int64 // OFAR escape-ring hops of delivered packets

	// Histogram of total latency (linear buckets of width
	// latencyMax/latencyBuckets, last bucket is overflow).
	latHist [latencyBuckets + 1]int64

	// Link utilization: phits carried per link class.
	LocalLinkPhits  int64
	GlobalLinkPhits int64

	// windowWidth partitions the run into fixed-width Timeline windows;
	// zero disables window collection. Windows and phase cells survive
	// Reset: the timeline and the per-phase digests deliberately span the
	// whole run, warmup included, because the transients they exist to
	// show (a pattern switch, a burst landing) do not respect the
	// warmup/measurement boundary. Packets are attributed to the phase
	// that generated them, whenever they deliver.
	windowWidth int64
	windows     []windowCell
	phaseCells  []counts
}

// Configure readies the sheet for a run: every counter zero, the Timeline
// window width set (0 disables windows) and phases workload phases tracked
// by per-phase digests (0 disables them). A sheet that already served a
// run keeps the window and phase storage it grew and clears it.
func (s *Sheet) Configure(windowWidth int64, phases int) {
	cells := s.phaseCells
	if cap(cells) < phases {
		cells = make([]counts, phases)
	}
	cells = cells[:phases]
	clear(cells)
	*s = Sheet{windowWidth: windowWidth, windows: s.windows[:0], phaseCells: cells}
}

// windowAt returns the cell covering cycle, growing the lazy window slice
// as the run advances.
func (s *Sheet) windowAt(cycle int64) *windowCell {
	i := int(cycle / s.windowWidth)
	for len(s.windows) <= i {
		s.windows = append(s.windows, windowCell{})
	}
	return &s.windows[i]
}

// phaseAt returns the cell of workload-global phase id, or nil when phase
// tracking is off or the id is out of range.
func (s *Sheet) phaseAt(phase int) *counts {
	if phase < 0 || phase >= len(s.phaseCells) {
		return nil
	}
	return &s.phaseCells[phase]
}

// RecordDelivery accounts one packet delivered at cycle that was generated
// in workload phase (pass cycle 0 / phase -1 when neither windows nor
// phases are configured).
func (s *Sheet) RecordDelivery(cycle int64, phase int, phits int, totalLat, netLat int64, localHops, globalHops, localMis, globalMis, escapeHops int) {
	s.deliver(phits, totalLat, netLat, localMis, globalMis)
	s.LocalHops += int64(localHops)
	s.GlobalHops += int64(globalHops)
	s.EscapeHops += int64(escapeHops)
	b := int(totalLat) * latencyBuckets / latencyMax
	if b >= latencyBuckets || b < 0 {
		b = latencyBuckets
	}
	s.latHist[b]++
	if s.windowWidth > 0 {
		w := s.windowAt(cycle)
		w.deliver(phits, totalLat, netLat, localMis, globalMis)
		wb := int(totalLat) * windowBuckets / latencyMax
		if wb >= windowBuckets || wb < 0 {
			wb = windowBuckets
		}
		w.latHist[wb]++
	}
	if c := s.phaseAt(phase); c != nil {
		c.deliver(phits, totalLat, netLat, localMis, globalMis)
	}
}

// RecordInjected accounts one packet generated at cycle in phase and
// accepted into an injection queue.
func (s *Sheet) RecordInjected(cycle int64, phase int) {
	s.Generated++
	s.Injected++
	if s.windowWidth > 0 {
		w := s.windowAt(cycle)
		w.Generated++
		w.Injected++
	}
	if c := s.phaseAt(phase); c != nil {
		c.Generated++
		c.Injected++
	}
}

// RecordFaultDrop accounts one packet discarded at cycle because link
// failures left it without a surviving route.
func (s *Sheet) RecordFaultDrop(cycle int64, phase int) {
	s.FaultDrops++
	if s.windowWidth > 0 {
		s.windowAt(cycle).FaultDrops++
	}
	if c := s.phaseAt(phase); c != nil {
		c.FaultDrops++
	}
}

// RecordInjectionLost accounts one generation event dropped at cycle in
// phase because the injection queue was full.
func (s *Sheet) RecordInjectionLost(cycle int64, phase int) {
	s.Generated++
	s.InjectionLost++
	if s.windowWidth > 0 {
		w := s.windowAt(cycle)
		w.Generated++
		w.InjectionLost++
	}
	if c := s.phaseAt(phase); c != nil {
		c.Generated++
		c.InjectionLost++
	}
}

// RecordSuppressed accounts one generation event suppressed at cycle in
// phase because the source node's router is dead (the node is parked).
func (s *Sheet) RecordSuppressed(cycle int64, phase int) {
	s.Generated++
	s.Suppressed++
	if s.windowWidth > 0 {
		w := s.windowAt(cycle)
		w.Generated++
		w.Suppressed++
	}
	if c := s.phaseAt(phase); c != nil {
		c.Generated++
		c.Suppressed++
	}
}

// Merge adds other into s, growing s's windows at most once.
func (s *Sheet) Merge(other *Sheet) {
	s.add(&other.counts)
	s.LocalHops += other.LocalHops
	s.GlobalHops += other.GlobalHops
	s.EscapeHops += other.EscapeHops
	s.LocalLinkPhits += other.LocalLinkPhits
	s.GlobalLinkPhits += other.GlobalLinkPhits
	for i := range s.latHist {
		s.latHist[i] += other.latHist[i]
	}
	if n, m := len(other.windows), len(s.windows); n > m {
		s.windows = slices.Grow(s.windows, n-m)[:n]
		clear(s.windows[m:])
	}
	for i := range other.windows {
		w, o := &s.windows[i], &other.windows[i]
		w.add(&o.counts)
		for b := range w.latHist {
			w.latHist[b] += o.latHist[b]
		}
	}
	for i := range min(len(s.phaseCells), len(other.phaseCells)) {
		s.phaseCells[i].add(&other.phaseCells[i])
	}
}

// Reset zeroes the run counters (used at the warmup/measurement boundary).
// Window and phase accumulators survive: the Timeline and the per-phase
// digests span the whole run by design.
func (s *Sheet) Reset() {
	*s = Sheet{windowWidth: s.windowWidth, windows: s.windows, phaseCells: s.phaseCells}
}

// LatencyPercentile returns an approximation (bucket upper bound) of the
// q-th percentile of total latency, q in [0, 100]. It returns NaN when no
// packet was delivered.
func (s *Sheet) LatencyPercentile(q float64) float64 {
	if s.Delivered == 0 {
		return math.NaN()
	}
	target := int64(math.Ceil(q / 100 * float64(s.Delivered)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.latHist {
		cum += c
		if cum >= target {
			if i == latencyBuckets {
				return math.Inf(1)
			}
			return float64((i + 1) * latencyMax / latencyBuckets)
		}
	}
	return math.Inf(1)
}

// Window is one fixed-width snapshot of a run's Timeline: the packets
// delivered (and generation events) in [Start, End) on the absolute
// simulation clock, warmup included. Rates with no deliveries in the window
// report zero (not NaN) so timelines serialize cleanly.
type Window struct {
	Start int64 // first cycle of the window
	End   int64 // one past the last cycle covered

	AcceptedLoad       float64 // phits/(node·cycle) delivered in the window
	AvgTotalLatency    float64 // of packets delivered in the window; 0 when none
	P99Latency         float64
	LocalMisrouteRate  float64 // local misroutes per packet delivered in the window
	GlobalMisrouteRate float64

	Delivered     int64
	Generated     int64
	InjectionLost int64
	Suppressed    int64 `json:",omitempty"`
	FaultDrops    int64
}

// Timeline is the windowed time series of a run — the raw material of the
// transient traffic-change figures: the whole run (warmup included) cut
// into fixed-width windows, the last one possibly shorter.
type Timeline struct {
	WindowCycles int64
	Windows      []Window
}

// PhaseInfo describes one workload phase to the digester: its label, the
// node count of its job, and its [Start, Start+Duration) activity span
// (Duration 0 = until the end of the run).
type PhaseInfo struct {
	Label    string
	Nodes    int
	Start    int64
	Duration int64
}

// PhaseDigest summarizes the packets one workload phase generated,
// wherever in the run they delivered. AcceptedLoad normalizes by the
// phase's activity span and its job's node count.
type PhaseDigest struct {
	Index int
	Label string
	Nodes int
	Start int64
	End   int64

	AcceptedLoad       float64
	AvgTotalLatency    float64
	AvgNetworkLatency  float64
	LocalMisrouteRate  float64
	GlobalMisrouteRate float64

	Generated     int64
	InjectionLost int64
	Suppressed    int64 `json:",omitempty"`
	Delivered     int64
	FaultDrops    int64
}

// Timeline digests the window accumulators into the run's time series.
// It returns nil when windows were not configured; totalCycles caps the
// last window's span. The timeline always covers the whole run: windows
// past the last recorded event (a quiet drain tail, an ended job) come
// out zero-valued rather than missing.
func (s *Sheet) Timeline(totalCycles int64, nodes int) *Timeline {
	if s.windowWidth <= 0 {
		return nil
	}
	n := max(int((totalCycles+s.windowWidth-1)/s.windowWidth), len(s.windows))
	t := &Timeline{WindowCycles: s.windowWidth, Windows: make([]Window, n)}
	for i := range t.Windows {
		w := &t.Windows[i]
		w.Start = int64(i) * s.windowWidth
		w.End = min(w.Start+s.windowWidth, totalCycles)
		if i >= len(s.windows) {
			continue
		}
		c := &s.windows[i]
		w.Delivered = c.Delivered
		w.Generated = c.Generated
		w.InjectionLost = c.InjectionLost
		w.Suppressed = c.Suppressed
		w.FaultDrops = c.FaultDrops
		w.AcceptedLoad, w.AvgTotalLatency, _, w.LocalMisrouteRate, w.GlobalMisrouteRate = c.rates(w.End-w.Start, nodes)
		w.P99Latency = c.p99()
	}
	return t
}

// PhaseDigests digests the per-phase accumulators; infos must be indexed
// by workload-global phase id. It returns nil when phases were not
// configured.
func (s *Sheet) PhaseDigests(infos []PhaseInfo, totalCycles int64) []PhaseDigest {
	if len(s.phaseCells) == 0 {
		return nil
	}
	out := make([]PhaseDigest, len(s.phaseCells))
	for i := range s.phaseCells {
		c := &s.phaseCells[i]
		d := &out[i]
		d.Index = i
		d.Generated = c.Generated
		d.InjectionLost = c.InjectionLost
		d.Suppressed = c.Suppressed
		d.Delivered = c.Delivered
		d.FaultDrops = c.FaultDrops
		if i < len(infos) {
			info := infos[i]
			d.Label = info.Label
			d.Nodes = info.Nodes
			d.Start = info.Start
			d.End = totalCycles
			if info.Duration > 0 && info.Start+info.Duration < totalCycles {
				d.End = info.Start + info.Duration
			}
		}
		d.AcceptedLoad, d.AvgTotalLatency, d.AvgNetworkLatency, d.LocalMisrouteRate, d.GlobalMisrouteRate = c.rates(d.End-d.Start, d.Nodes)
	}
	return out
}

// Result is the digest of one simulation run; its fields mirror the
// paper's reported metrics. It is the public API's result type (package
// dragonfly aliases it) and the payload of every cache entry, canonical
// JSONL record and dragonsrv response, so its field names, order and
// omitempty tags are a wire format: result_pin_test.go pins the bytes.
type Result struct {
	Mechanism   string  // routing mechanism name
	Pattern     string  // traffic pattern name (workload label for phased runs)
	FlowControl string  // "VCT" or "WH"
	OfferedLoad float64 // phits/(node·cycle) requested; 0 for multi-phase workloads

	AcceptedLoad      float64 // phits/(node·cycle) delivered
	AvgTotalLatency   float64 // generation -> delivery, cycles
	AvgNetworkLatency float64 // injection -> delivery, cycles
	P50Latency        float64
	P99Latency        float64

	AvgLocalHops       float64
	AvgGlobalHops      float64
	LocalMisrouteRate  float64 // local misroutes per delivered packet
	GlobalMisrouteRate float64 // Valiant commitments per delivered packet
	EscapeHopRate      float64 // OFAR escape-ring hops per delivered packet

	Delivered     int64
	Generated     int64
	InjectionLost int64
	// Suppressed counts generation events suppressed at the source
	// because the node's router was dead at the time — parked capacity,
	// separate from in-network drops (always zero without router
	// failures). Conservation: Generated == Injected + InjectionLost +
	// Suppressed.
	Suppressed int64 `json:",omitempty"`
	// FaultDrops counts packets discarded in-network because link
	// failures left them without a surviving route (always zero on
	// fault-free runs).
	FaultDrops int64
	Cycles     int64 // measured cycles (the whole run for burst workloads)
	Nodes      int

	// PhitsMoved is the total number of crossbar phit movements over the
	// whole run (warmup included) — the engine's raw unit of work;
	// benchmark harnesses divide it by wall time.
	PhitsMoved int64

	LocalLinkUtil  float64 // mean phits/cycle per local link
	GlobalLinkUtil float64 // mean phits/cycle per global link

	// ConsumptionCycles is the burst drain time: the cycle at which the
	// last packet was delivered (burst runs only).
	ConsumptionCycles int64
	// Deadlock reports that the watchdog detected no forward progress.
	Deadlock bool

	// Timeline is the windowed time series of the run, nil unless a
	// window width was configured (dragonfly.Config.WindowCycles > 0).
	Timeline *Timeline `json:",omitempty"`
	// PhaseDigests summarizes each workload phase separately (nil for
	// single-phase runs, whose one digest would duplicate the Result).
	PhaseDigests []PhaseDigest `json:",omitempty"`
}

// Digest converts a Sheet into a Result given the measurement window and
// network size.
func Digest(s *Sheet, cycles int64, nodes, localLinks, globalLinks int) Result {
	r := Result{
		Cycles:        cycles,
		Nodes:         nodes,
		Delivered:     s.Delivered,
		Generated:     s.Generated,
		InjectionLost: s.InjectionLost,
		Suppressed:    s.Suppressed,
		FaultDrops:    s.FaultDrops,
	}
	r.AcceptedLoad, r.AvgTotalLatency, r.AvgNetworkLatency, r.LocalMisrouteRate, r.GlobalMisrouteRate = s.rates(cycles, nodes)
	if s.Delivered > 0 {
		d := float64(s.Delivered)
		r.AvgLocalHops = float64(s.LocalHops) / d
		r.AvgGlobalHops = float64(s.GlobalHops) / d
		r.EscapeHopRate = float64(s.EscapeHops) / d
		r.P50Latency = s.LatencyPercentile(50)
		r.P99Latency = s.LatencyPercentile(99)
	}
	if cycles > 0 && localLinks > 0 {
		r.LocalLinkUtil = float64(s.LocalLinkPhits) / float64(cycles) / float64(localLinks)
	}
	if cycles > 0 && globalLinks > 0 {
		r.GlobalLinkUtil = float64(s.GlobalLinkPhits) / float64(cycles) / float64(globalLinks)
	}
	return r
}
