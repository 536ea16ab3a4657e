// Package dragonfly is a cycle-accurate simulator of Dragonfly
// interconnection networks with the deadlock-free adaptive routing
// mechanisms of García, Vallejo, Beivide, Odriozola and Valero,
// "Efficient Routing Mechanisms for Dragonfly Networks" (ICPP 2013).
//
// It models the canonical well-balanced dragonfly (groups of 2h routers in
// a complete graph, 2h²+1 groups in a complete graph, h nodes per router)
// with FIFO input-buffered routers, credit-based virtual cut-through or
// wormhole flow control, and phit-granularity links — the same abstraction
// level as the paper's in-house simulator. Six routing mechanisms are
// provided: Minimal, Valiant, Piggybacking, PAR-6/2, RLM and OLM (plus a
// sign-only RLM ablation), together with the paper's synthetic traffic
// patterns (uniform, ADVG+N, ADVL+N, mixed, bursts).
//
// # Quick start
//
//	cfg := dragonfly.Config{
//		H:         4,
//		Mechanism: dragonfly.OLM,
//		Traffic:   dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1},
//		Load:      0.5,
//	}
//	res, err := dragonfly.Run(cfg)
//	if err != nil { ... }
//	fmt.Println(res.AcceptedLoad, res.AvgTotalLatency)
package dragonfly

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Mechanism selects the routing algorithm.
type Mechanism int

// The routing mechanisms of the paper. RLMSignOnly is the rejected
// restriction discussed (and dismissed) in Section III-B, kept as an
// ablation; OFAR is the escape-ring predecessor of Section II
// (García et al., ICPP 2012) the paper positions RLM and OLM against.
const (
	Minimal Mechanism = iota
	Valiant
	Piggybacking
	PAR62
	RLM
	OLM
	RLMSignOnly
	OFAR
)

// Mechanisms lists all supported mechanisms in presentation order.
var Mechanisms = []Mechanism{Minimal, Valiant, Piggybacking, PAR62, RLM, OLM, RLMSignOnly, OFAR}

// String returns the paper's name for the mechanism.
func (m Mechanism) String() string { return m.spec().String() }

func (m Mechanism) spec() core.Spec { return core.Spec(m) }

// ParseMechanism resolves a mechanism by its String name.
func ParseMechanism(name string) (Mechanism, error) {
	s, err := core.ParseSpec(name)
	if err != nil {
		return 0, err
	}
	return Mechanism(s), nil
}

// RequiresVCT reports whether the mechanism only works under virtual
// cut-through flow control (true for OLM and for OFAR, whose escape-ring
// bubble needs whole-packet buffering).
func (m Mechanism) RequiresVCT() bool { return m.spec().RequiresVCT() }

// VCs returns the number of virtual channels the mechanism needs on local
// and global ports ("3/2" for everything but PAR-6/2's "6/2").
func (m Mechanism) VCs() (local, global int) { return m.spec().VCs() }

// FlowControl selects the link-level flow control.
type FlowControl int

// Flow control disciplines.
const (
	VCT FlowControl = iota // virtual cut-through
	WH                     // wormhole
)

// String returns "VCT" or "WH".
func (f FlowControl) String() string { return engine.FlowControl(f).String() }

// ParseFlowControl resolves "VCT" or "WH".
func ParseFlowControl(s string) (FlowControl, error) {
	f, err := engine.ParseFlowControl(s)
	return FlowControl(f), err
}

// TrafficKind selects the synthetic traffic pattern family.
type TrafficKind int

// Traffic pattern kinds of the paper's evaluation.
const (
	UN   TrafficKind = iota // uniform random
	ADVG                    // adversarial global: group i -> group i+Offset
	ADVL                    // adversarial local: router i -> router i+Offset
	MIX                     // GlobalPercent% ADVG+h mixed with ADVL+1
)

// Traffic describes the workload.
type Traffic struct {
	Kind TrafficKind
	// Offset is the +N of ADVG/ADVL patterns (default 1; the paper's
	// pathological global pattern is ADVG+h).
	Offset int
	// GlobalPercent is, for MIX, the percentage of traffic following
	// ADVG+h; the rest follows ADVL+1 (paper Figures 6 and 9).
	GlobalPercent float64
}

// Name returns the paper's label for the pattern, or an error for an
// unknown kind. Config.Validate surfaces that error before any simulation
// runs, so a label in results output is always a real pattern name.
func (tr Traffic) Name(h int) (string, error) {
	switch tr.Kind {
	case UN:
		return "UN", nil
	case ADVG:
		return fmt.Sprintf("ADVG+%d", tr.offset()), nil
	case ADVL:
		return fmt.Sprintf("ADVL+%d", tr.offset()), nil
	case MIX:
		return fmt.Sprintf("%.0f%%ADVG+%d/ADVL+1", tr.GlobalPercent, h), nil
	}
	return "", fmt.Errorf("dragonfly: unknown traffic kind %d", tr.Kind)
}

// validate checks the pattern parameters against the topology bounds of a
// well-balanced dragonfly of size h (2h²+1 groups of 2h routers).
func (tr Traffic) validate(h int) error {
	name, err := tr.Name(h)
	if err != nil {
		return err
	}
	switch tr.Kind {
	case ADVG:
		if groups := 2*h*h + 1; tr.offset() < 1 || tr.offset() >= groups {
			return fmt.Errorf("dragonfly: %s offset out of range [1, %d) for h=%d", name, groups, h)
		}
	case ADVL:
		if rpg := 2 * h; tr.offset() < 1 || tr.offset() >= rpg {
			return fmt.Errorf("dragonfly: %s offset out of range [1, %d) for h=%d", name, rpg, h)
		}
	case MIX:
		if !(0 <= tr.GlobalPercent && tr.GlobalPercent <= 100) {
			return fmt.Errorf("dragonfly: MIX global percentage %v outside [0, 100]", tr.GlobalPercent)
		}
	}
	return nil
}

func (tr Traffic) offset() int {
	if tr.Offset == 0 {
		return 1
	}
	return tr.Offset
}

// PhaseSpec describes one phase of a workload schedule: a traffic pattern
// driven either at a steady offered Load (Bernoulli injection) or as a
// burst of BurstPackets packets per node, active for Duration cycles.
type PhaseSpec struct {
	Traffic Traffic
	// Load is the phase's offered load in phits/(node·cycle); steady
	// phases require it in (0, 1] and must leave BurstPackets zero.
	Load float64
	// BurstPackets, when positive, makes this a burst phase: every node of
	// the job sends this many packets, then falls silent.
	BurstPackets int
	// Duration is the number of cycles the phase is active, counted on the
	// absolute simulation clock (warmup included). Zero means "until the
	// end of the run" and is only legal on the last phase of a schedule.
	Duration int64
}

// JobSpec binds a phase schedule to a contiguous node range, so disjoint
// partitions of the machine can run independent workloads (multi-job
// interference scenarios). The zero range means "all nodes".
type JobSpec struct {
	// FirstNode and LastNode are inclusive global node ids. Leaving both
	// zero selects the whole network.
	FirstNode int
	LastNode  int
	Phases    []PhaseSpec
}

// LinkID names one full-duplex physical link by either of its ends: the
// output port of the router driving one direction. Failing a link always
// removes both directions. Canonicalization reduces the two spellings of a
// link to the end with the smaller router id.
type LinkID struct {
	Router int
	Port   int
}

// FaultEvent is one scheduled link state change: Link fails (or, with
// Repair true, comes back) at the start of cycle At on the absolute
// simulation clock, warmup included. Kills take effect for routing
// immediately; traffic already committed to the link drains, and packets
// elsewhere that lost their only surviving route are dropped and counted
// in Result.FaultDrops.
type FaultEvent struct {
	At     int64
	Repair bool
	Link   LinkID
}

// RouterFault fails a whole router: every link port dies as one event and
// the attached nodes are parked — their generation events are suppressed at
// the source (counted in Result.Suppressed, separate from drops) and
// packets arriving for them drain through the drop sink. At schedules the
// failure on the absolute clock (zero or negative = failed from the
// start); Until, when positive, revives the router at that cycle. Reviving
// restores exactly the links with no other reason to stay down.
type RouterFault struct {
	Router int
	At     int64 `json:",omitempty"`
	Until  int64 `json:",omitempty"`
}

// BundleFault fails a correlated cable bundle of group Group as one event,
// in either of two forms:
//
//   - First == Last == 0: a whole-group blackout. The group's entire
//     global-channel set is one physical bundle in the model; cutting it
//     isolates the group (every global channel of a group lands in a
//     distinct other group, so there is no detour), which is why the
//     blackout takes the group's 2h routers down with it — parked nodes
//     and all — instead of leaving an unreachable island behind.
//   - otherwise: a local backplane segment. Every local link among router
//     indices [First, Last] of the group dies together; the routers stay
//     up and route around it.
//
// At and Until schedule the outage like RouterFault's.
type BundleFault struct {
	Group int
	First int   `json:",omitempty"`
	Last  int   `json:",omitempty"`
	At    int64 `json:",omitempty"`
	Until int64 `json:",omitempty"`
}

// FlapSpec schedules a transient link instability: Link dies at cycles
// At + k*Period and recovers Down cycles later, for k in [0, Count) — an
// unstable cable rather than a hard failure. Flaps expand into the
// ordinary fault-event stream at build time, so determinism and the
// serial-section application path are untouched; every kill and repair
// recomputes the (possibly StaleCycles-stale) routing view through the
// incremental epoch machinery.
type FlapSpec struct {
	Link   LinkID
	At     int64
	Period int64
	Down   int64
	Count  int
}

// FaultSpec describes a degraded dragonfly: links failed from the start
// (explicitly, or as deterministic seeded fractions per link class),
// whole-router and correlated-bundle failures, plus dynamic mid-run
// failures, repairs and flaps. The zero value means a pristine network and
// changes nothing — fault-free runs are bit-identical to a config with no
// FaultSpec at all.
type FaultSpec struct {
	// Links lists links failed from cycle 0.
	Links []LinkID `json:",omitempty"`
	// GlobalFraction and LocalFraction fail a deterministic pseudo-random
	// selection of that fraction of global/local links, drawn from the
	// run's Seed; both must be in [0, 1). The same (H, fraction, Seed)
	// always fails the same links, so results stay content-addressable.
	GlobalFraction float64 `json:",omitempty"`
	LocalFraction  float64 `json:",omitempty"`
	// Events schedules mid-run kills and repairs, applied in At order
	// (ties in canonical link order, kills before repairs).
	Events []FaultEvent `json:",omitempty"`
	// Routers fails whole routers, parked nodes included.
	Routers []RouterFault `json:",omitempty"`
	// Bundles fails correlated cable bundles: whole-group blackouts or
	// local backplane segments.
	Bundles []BundleFault `json:",omitempty"`
	// Flaps schedules transient kill+repair bursts per link.
	Flaps []FlapSpec `json:",omitempty"`
}

// empty reports whether the spec describes a pristine network.
func (f *FaultSpec) empty() bool {
	return f == nil || (len(f.Links) == 0 && len(f.Events) == 0 &&
		len(f.Routers) == 0 && len(f.Bundles) == 0 && len(f.Flaps) == 0 &&
		f.GlobalFraction == 0 && f.LocalFraction == 0)
}

// dynamic reports whether the spec changes fault state mid-run — the only
// case where routing-view staleness can matter.
func (f *FaultSpec) dynamic() bool {
	if f == nil {
		return false
	}
	if len(f.Events) > 0 || len(f.Flaps) > 0 {
		return true
	}
	for _, r := range f.Routers {
		if r.At > 0 || r.Until > 0 {
			return true
		}
	}
	for _, b := range f.Bundles {
		if b.At > 0 || b.Until > 0 {
			return true
		}
	}
	return false
}

// Config describes one simulation experiment. Zero fields take the paper's
// defaults; the field comments are the one written list of them. Every run
// simulates Canonical() of its Config (Workers aside), so the defaults a
// run uses are exactly those its cache key hashes.
type Config struct {
	// H is the dragonfly sizing parameter: groups of 2h routers,
	// 2h²+1 groups, h nodes per router. The paper evaluates h=8
	// (16,512 nodes); the default, 4, is a fast reduced scale.
	H int

	// Mechanism selects the routing mechanism under test (default
	// Minimal; see Mechanisms for the full roster).
	Mechanism Mechanism
	// FlowControl selects virtual cut-through or wormhole switching
	// (default VCT, the paper's Section IV-A environment).
	FlowControl FlowControl

	// PacketPhits is the packet size: 8 in the paper's VCT experiments,
	// 80 (8 flits of 10 phits) in the WH ones. Default: 8 for VCT,
	// 80 for WH.
	PacketPhits int

	// Threshold is the misrouting trigger percentage expressed as a
	// fraction (default 0.45, the paper's choice, for any value <= 0).
	Threshold float64
	// PBThreshold is Piggybacking's congestion-bit occupancy fraction
	// (default 0.35 for any value <= 0).
	PBThreshold float64
	// RemoteCandidates is how many remote global channels are sampled as
	// additional global-misrouting candidates (default 2; a negative value
	// restricts global misrouting to the router's own global ports).
	RemoteCandidates int

	BufLocal        int // phits per local VC buffer (default 32)
	BufGlobal       int // phits per global VC buffer (default 256)
	InjQueuePackets int // injection queue depth in packets (default 16)
	LatLocal        int // local link latency, cycles (default 10)
	LatGlobal       int // global link latency, cycles (default 100)

	// Traffic selects the traffic pattern (default UN, uniform random).
	Traffic Traffic
	// Load is the offered load in phits/(node·cycle) for steady-state
	// (Bernoulli) experiments.
	Load float64
	// BurstPackets, when positive, switches to the paper's burst
	// consumption experiment: every node sends this many packets and the
	// run measures the cycles needed to drain them all.
	BurstPackets int

	// Phases, when non-empty, replaces the Traffic/Load/BurstPackets trio
	// with a phase schedule over all nodes: each phase binds a pattern and
	// injection process for its Duration, so a run can, e.g., switch from
	// UN to ADVG mid-measurement to study how mechanisms react. The trio
	// is exactly equivalent to a one-element Phases schedule.
	Phases []PhaseSpec
	// Workload generalizes Phases to node-partitioned multi-job schedules
	// (disjoint node ranges running independent phase schedules). At most
	// one of Phases and Workload may be set.
	Workload []JobSpec
	// WindowCycles, when positive, adds a Timeline of fixed-width window
	// snapshots (accepted load, latency, misroute rates per window) to the
	// Result, covering the whole run including warmup.
	WindowCycles int64

	// Faults, when non-nil and non-empty, degrades the network: the
	// listed (or seed-drawn) links are failed and the scheduled events
	// kill/repair links mid-run. Configurations whose surviving links do
	// not connect every router are rejected at build time. Mechanisms
	// fall back to surviving candidates where their routing discipline
	// allows; packets with no surviving route are dropped and counted in
	// Result.FaultDrops.
	Faults *FaultSpec `json:",omitempty"`

	// StaleCycles delays the routing view of every fault event by this
	// many cycles: a link killed (or repaired) at cycle C stops (or
	// resumes) carrying traffic immediately, but the routing tables the
	// mechanisms consult only learn of it at C+StaleCycles — modeling a
	// fabric manager that needs time to detect the event, broadcast it
	// and recompute the tables. During the stale window packets keep
	// steering toward dead links (they wait, then drop once the tables
	// catch up) and avoid repaired ones. Zero — the default — models
	// instantaneous link-state knowledge and is bit-identical to the
	// behavior before this knob existed. It only affects runs with
	// Faults.Events; initial faults are always known at boot.
	StaleCycles int64 `json:",omitempty"`

	Warmup  int64 // steady-state warmup cycles (default 3000)
	Measure int64 // steady-state measured cycles (default 6000)

	// Seed seeds every random stream in the run (traffic, fault
	// sampling, routing tie-breaks); equal configurations with equal
	// seeds reproduce bit-identical results.
	Seed uint64
	// Workers is the parallel-stepping width (default 1, serial). The
	// engine clamps it to runtime.GOMAXPROCS(0) and to the router count;
	// results are bit-identical for any value, so it is purely a
	// wall-clock knob and Canonical() drops it from the cache key.
	Workers int

	// MaxCycles bounds burst-mode runs that fail to drain (default
	// 50×(Warmup+Measure+20000)).
	MaxCycles int64
	// Watchdog is how many cycles without forward progress declare a
	// deadlock (default 20000).
	Watchdog int64
}

// The result types are aliases of the engine's own: a run's digest reaches
// the caller, the caches and the wire exactly as the engine wrote it, with
// no per-point translation. Their fields are documented once, on the
// aliased types — `go doc repro/internal/metrics Result` and friends.

// Result is the digest of one run; its fields mirror the paper's reported
// metrics (accepted load, latencies, misroute rates, burst drain time) plus
// the packet-conservation counters. Fields: see metrics.Result.
type Result = metrics.Result

// Window is one fixed-width snapshot of a run's Timeline. Fields: see
// metrics.Window.
type Window = metrics.Window

// Timeline is a run's windowed time series, present in a Result when
// Config.WindowCycles is positive. Fields: see metrics.Timeline.
type Timeline = metrics.Timeline

// PhaseDigest summarizes the packets generated during one workload phase,
// wherever in the run they were delivered. Fields: see metrics.PhaseDigest.
type PhaseDigest = metrics.PhaseDigest

// normalize returns a copy of c with the paper's defaults filled in (see
// the Config field comments): the one place they are written.
func (c Config) normalize() Config {
	if c.H == 0 {
		c.H = 4
	}
	if c.PacketPhits == 0 {
		if c.FlowControl == WH {
			c.PacketPhits = 80
		} else {
			c.PacketPhits = 8
		}
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.45
	}
	if c.PBThreshold <= 0 {
		c.PBThreshold = 0.35
	}
	if c.RemoteCandidates == 0 {
		c.RemoteCandidates = 2
	}
	if c.BufLocal == 0 {
		c.BufLocal = 32
	}
	if c.BufGlobal == 0 {
		c.BufGlobal = 256
	}
	if c.InjQueuePackets == 0 {
		c.InjQueuePackets = 16
	}
	if c.LatLocal == 0 {
		c.LatLocal = 10
	}
	if c.LatGlobal == 0 {
		c.LatGlobal = 100
	}
	if c.Warmup == 0 {
		c.Warmup = 3000
	}
	if c.Measure == 0 {
		c.Measure = 6000
	}
	if c.Watchdog == 0 {
		c.Watchdog = 20000
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 50 * (c.Warmup + c.Measure + 20000)
	}
	return c
}

// jobSpecs returns the workload in its general multi-job form, whatever
// way it was specified: Workload verbatim, Phases as a single whole-network
// job, or the classic Traffic/Load/BurstPackets trio as a single job with
// a single phase.
func (c Config) jobSpecs() []JobSpec {
	if len(c.Workload) > 0 {
		return c.Workload
	}
	if len(c.Phases) > 0 {
		return []JobSpec{{Phases: c.Phases}}
	}
	return []JobSpec{{Phases: []PhaseSpec{{
		Traffic:      c.Traffic,
		Load:         c.Load,
		BurstPackets: c.BurstPackets,
	}}}}
}

// singlePhase returns the workload's only phase when it consists of one
// whole-network job — the implicit zero range or the explicit
// [0, nodes-1] spelling — with one phase, or nil. c must be normalized.
func (c Config) singlePhase() *PhaseSpec {
	jobs := c.jobSpecs()
	if len(jobs) != 1 || len(jobs[0].Phases) != 1 || jobs[0].FirstNode != 0 {
		return nil
	}
	if last := jobs[0].LastNode; last != 0 {
		nodes := 2 * c.H * (2*c.H*c.H + 1) * c.H
		if last != nodes-1 {
			return nil
		}
	}
	return &jobs[0].Phases[0]
}

// maxCycles bounds every cycle-valued field of a Config. Nothing simulates
// 2^40 cycles, and below it every sum formed from these fields — an event's
// At plus StaleCycles, a flap's At + Count×Period, the defaulted MaxCycles
// of 50×(Warmup+Measure+20000) — stays inside int64.
const maxCycles = int64(1) << 40

// checkCycles rejects a cycle count or cycle number outside [0, maxCycles];
// where and field name it in the error.
func checkCycles(where, field string, v int64) error {
	if v < 0 || v > maxCycles {
		return fmt.Errorf("dragonfly: %s: %s %d outside [0, %d]", where, field, v, maxCycles)
	}
	return nil
}

// Validate rejects inconsistent configurations with a descriptive error
// before any network is built: cycle counts outside [0, 2^40], unknown
// mechanisms and flow controls, out-of-range offered loads, Load and
// BurstPackets both set, adversarial offsets outside the topology, unknown
// traffic kinds, overlapping workload jobs and malformed phase schedules.
// Run, Prepare and the CLIs all call it; it is exported so tools can check
// configurations they are about to store or enqueue.
func (c Config) Validate() error {
	// Bounded as given, before normalize: the defaulted MaxCycles of a
	// legal Warmup near the bound lies past it.
	if err := cmp.Or(
		checkCycles("config", "Warmup", c.Warmup), checkCycles("config", "Measure", c.Measure),
		checkCycles("config", "MaxCycles", c.MaxCycles), checkCycles("config", "Watchdog", c.Watchdog),
		checkCycles("config", "WindowCycles", c.WindowCycles), checkCycles("config", "StaleCycles", c.StaleCycles),
	); err != nil {
		return err
	}
	c = c.normalize()
	if c.H < 1 {
		return fmt.Errorf("dragonfly: h must be >= 1, got %d", c.H)
	}
	if c.H > ScaleH16 {
		// Checked here, before anything is sized from H: the workload tables
		// alone grow as h⁴, so an absurd H would exhaust memory in Prepare
		// long before the engine's own port check could reject it.
		return fmt.Errorf("dragonfly: h=%d: %d ports per router exceeds the 63-port activity-mask limit (h <= %d)",
			c.H, 4*c.H-1, ScaleH16)
	}
	if !slices.Contains(Mechanisms, c.Mechanism) {
		return fmt.Errorf("dragonfly: unknown mechanism %d", int(c.Mechanism))
	}
	if c.FlowControl != VCT && c.FlowControl != WH {
		return fmt.Errorf("dragonfly: unknown flow control %d", int(c.FlowControl))
	}
	if c.PacketPhits > engine.MaxPacketPhits {
		return fmt.Errorf("dragonfly: %d-phit packets exceed the engine's %d-phit limit", c.PacketPhits, engine.MaxPacketPhits)
	}
	// Written so that NaN fails too: it passes normalize's "<= 0" default
	// fill and every plain comparison.
	if !(0 < c.Threshold && c.Threshold <= math.MaxFloat64) || !(0 < c.PBThreshold && c.PBThreshold <= math.MaxFloat64) {
		return fmt.Errorf("dragonfly: thresholds %v/%v must be finite", c.Threshold, c.PBThreshold)
	}
	if len(c.Phases) > 0 && len(c.Workload) > 0 {
		return fmt.Errorf("dragonfly: Phases and Workload are mutually exclusive")
	}
	if len(c.Phases) > 0 || len(c.Workload) > 0 {
		if c.Load != 0 || c.BurstPackets != 0 {
			return fmt.Errorf("dragonfly: Load/BurstPackets must be zero when a phased workload is set")
		}
	}
	if !c.Faults.empty() {
		f := c.Faults
		// The negated >=-and-< form rejects NaN too, which would otherwise
		// pass every comparison, defeat empty(), and then break the JSON
		// cache key while drawing no faults at all.
		if !(f.GlobalFraction >= 0 && f.GlobalFraction < 1) ||
			!(f.LocalFraction >= 0 && f.LocalFraction < 1) {
			return fmt.Errorf("dragonfly: fault fractions %v/%v outside [0, 1)",
				f.GlobalFraction, f.LocalFraction)
		}
		p, err := topology.New(c.H)
		if err != nil {
			return err
		}
		checkLink := func(l LinkID, where string) error {
			if l.Router < 0 || l.Router >= p.Routers ||
				!(p.IsLocalPort(l.Port) || p.IsGlobalPort(l.Port)) {
				return fmt.Errorf("dragonfly: %s names no link of an h=%d dragonfly (router %d, port %d)",
					where, c.H, l.Router, l.Port)
			}
			return nil
		}
		for i, l := range f.Links {
			if err := checkLink(l, fmt.Sprintf("fault link %d", i)); err != nil {
				return err
			}
		}
		for i, ev := range f.Events {
			where := fmt.Sprintf("fault event %d", i)
			if err := cmp.Or(checkCycles(where, "At", ev.At), checkLink(ev.Link, where)); err != nil {
				return err
			}
		}
		checkOutage := func(at, until int64, where string) error {
			if err := cmp.Or(checkCycles(where, "At", at), checkCycles(where, "Until", until)); err != nil {
				return err
			}
			if until != 0 && until <= at {
				return fmt.Errorf("dragonfly: %s repairs at cycle %d, not after its failure at %d",
					where, until, at)
			}
			return nil
		}
		for i, rf := range f.Routers {
			where := fmt.Sprintf("router fault %d", i)
			if rf.Router < 0 || rf.Router >= p.Routers {
				return fmt.Errorf("dragonfly: %s names no router of an h=%d dragonfly (router %d)",
					where, c.H, rf.Router)
			}
			if err := checkOutage(rf.At, rf.Until, where); err != nil {
				return err
			}
		}
		for i, b := range f.Bundles {
			where := fmt.Sprintf("bundle fault %d", i)
			if b.Group < 0 || b.Group >= p.Groups {
				return fmt.Errorf("dragonfly: %s names no group of an h=%d dragonfly (group %d)",
					where, c.H, b.Group)
			}
			if b.First != 0 || b.Last != 0 {
				lo, hi := b.First, b.Last
				if lo > hi {
					lo, hi = hi, lo
				}
				if lo < 0 || hi >= p.RoutersPerGroup || lo == hi {
					return fmt.Errorf("dragonfly: %s local range [%d, %d] needs two distinct router indices in [0, %d)",
						where, b.First, b.Last, p.RoutersPerGroup)
				}
			}
			if err := checkOutage(b.At, b.Until, where); err != nil {
				return err
			}
		}
		for i, fl := range f.Flaps {
			where := fmt.Sprintf("flap %d", i)
			if err := checkLink(fl.Link, where); err != nil {
				return err
			}
			if err := checkCycles(where, "At", fl.At); err != nil {
				return err
			}
			if fl.Period > maxCycles || fl.Down <= 0 || fl.Down >= fl.Period {
				return fmt.Errorf("dragonfly: %s needs 0 < Down < Period <= %d (period %d, down %d)",
					where, maxCycles, fl.Period, fl.Down)
			}
			if fl.Count < 1 || fl.Count > 100000 {
				return fmt.Errorf("dragonfly: %s repeats %d times (want 1..100000)", where, fl.Count)
			}
		}
	}
	nodes := 2 * c.H * (2*c.H*c.H + 1) * c.H // routers × h
	jobs := c.jobSpecs()
	type span struct{ first, last int }
	spans := make([]span, 0, len(jobs))
	for ji, job := range jobs {
		first, last := job.FirstNode, job.LastNode
		if first == 0 && last == 0 {
			last = nodes - 1
		}
		if first < 0 || last >= nodes || first > last {
			return fmt.Errorf("dragonfly: job %d node range [%d, %d] outside [0, %d)",
				ji, job.FirstNode, job.LastNode, nodes)
		}
		for _, s := range spans {
			if first <= s.last && last >= s.first {
				return fmt.Errorf("dragonfly: job %d nodes [%d, %d] overlap another job's [%d, %d]",
					ji, first, last, s.first, s.last)
			}
		}
		spans = append(spans, span{first, last})
		if len(job.Phases) == 0 {
			return fmt.Errorf("dragonfly: job %d has no phases", ji)
		}
		for pi, ph := range job.Phases {
			where := fmt.Sprintf("job %d phase %d", ji, pi)
			if len(c.Phases) == 0 && len(c.Workload) == 0 {
				where = "config"
			}
			if err := ph.Traffic.validate(c.H); err != nil {
				return fmt.Errorf("%w (%s)", err, where)
			}
			switch {
			case ph.BurstPackets < 0:
				return fmt.Errorf("dragonfly: %s: negative BurstPackets %d", where, ph.BurstPackets)
			case ph.BurstPackets > 0 && ph.Load != 0:
				return fmt.Errorf("dragonfly: %s: Load (%v) and BurstPackets (%d) are mutually exclusive",
					where, ph.Load, ph.BurstPackets)
			case ph.BurstPackets == 0 && !(0 < ph.Load && ph.Load <= 1):
				return fmt.Errorf("dragonfly: %s: offered load %v outside (0, 1]", where, ph.Load)
			}
			last := pi == len(job.Phases)-1
			if err := checkCycles(where, "Duration", ph.Duration); err != nil {
				return err
			}
			if !last && ph.Duration == 0 {
				return fmt.Errorf("dragonfly: %s: non-final phases need a positive duration", where)
			}
		}
	}
	return nil
}

// canonicalTraffic reduces a pattern description to its meaningful fields.
func canonicalTraffic(tr Traffic) Traffic {
	switch tr.Kind {
	case UN:
		return Traffic{Kind: UN}
	case ADVG, ADVL:
		return Traffic{Kind: tr.Kind, Offset: tr.offset()}
	case MIX:
		return Traffic{Kind: MIX, GlobalPercent: tr.GlobalPercent}
	}
	return tr
}

// Canonical returns the configuration with every defaulted field filled
// in, result-irrelevant fields zeroed, and the traffic description reduced
// to its meaningful fields. Two configurations with equal Canonical()
// values produce identical Results: Workers is cleared because the engine
// is bit-identical for any worker count, Load is cleared for burst runs
// (the burst process ignores it), and unused Traffic fields are dropped.
// The workload is canonicalized too: a one-element Phases schedule (or a
// one-job one-phase Workload over all nodes) reduces to the classic
// Traffic/Load/BurstPackets trio, while genuinely phased workloads land in
// Workload form with explicit node ranges — so equivalent spellings share
// cache entries. Result caches (internal/exp) hash the canonical form as
// their key, and every run simulates it.
func (c Config) Canonical() Config {
	c = c.normalize()
	if c.WindowCycles < 0 {
		c.WindowCycles = 0
	}
	if ph := c.singlePhase(); ph != nil && ph.Duration == 0 {
		// One whole-network phase: the classic trio form is canonical.
		c.Traffic = canonicalTraffic(ph.Traffic)
		c.Load = ph.Load
		c.BurstPackets = ph.BurstPackets
		c.Phases, c.Workload = nil, nil
	} else {
		jobs := c.jobSpecs()
		canon := make([]JobSpec, len(jobs))
		nodes := 2 * c.H * (2*c.H*c.H + 1) * c.H
		for ji, job := range jobs {
			cj := JobSpec{FirstNode: job.FirstNode, LastNode: job.LastNode}
			if cj.FirstNode == 0 && cj.LastNode == 0 {
				cj.LastNode = nodes - 1
			}
			cj.Phases = make([]PhaseSpec, len(job.Phases))
			for pi, ph := range job.Phases {
				cp := PhaseSpec{
					Traffic:  canonicalTraffic(ph.Traffic),
					Load:     ph.Load,
					Duration: ph.Duration,
				}
				if ph.BurstPackets > 0 {
					cp.Load = 0
					cp.BurstPackets = ph.BurstPackets
				}
				cj.Phases[pi] = cp
			}
			canon[ji] = cj
		}
		c.Workload = canon
		c.Phases = nil
		c.Traffic = Traffic{}
		c.Load, c.BurstPackets = 0, 0
	}
	if c.BurstPackets > 0 {
		c.Load = 0
	}
	if c.Faults.empty() {
		c.Faults = nil // a pristine network hashes like no spec at all
	} else if p, err := topology.New(c.H); err == nil {
		// (An H with no topology keeps the spec as spelled; Validate rejects
		// such a config, so nothing is ever keyed on it.)
		c.Faults = c.Faults.canonical(p)
	}
	if !c.Faults.dynamic() {
		// Staleness only delays the routing view of mid-run changes;
		// without any it cannot affect results, so equivalent configs
		// share cache keys.
		c.StaleCycles = 0
	}
	c.Workers = 0
	return c
}

// canonicalLink reduces a link name to the end with the smaller router id.
// Invalid links are returned unchanged; Validate reports them.
func canonicalLink(p *topology.P, l LinkID) LinkID {
	if l.Router < 0 || l.Router >= p.Routers || !(p.IsLocalPort(l.Port) || p.IsGlobalPort(l.Port)) {
		return l
	}
	if rr, rp := p.LinkTarget(l.Router, l.Port); rr < l.Router {
		return LinkID{Router: rr, Port: rp}
	}
	return l
}

// sortedCopy returns a copy of in with every element passed through norm
// and the result ordered by order (which must break every tie, so equal
// means identical) — the one shape every FaultSpec list takes on its way to
// canonical form. Lists whose exact duplicates are mere spelling pass the
// result through slices.Compact.
func sortedCopy[T any](in []T, norm func(T) T, order func(a, b T) int) []T {
	if len(in) == 0 {
		return nil
	}
	out := make([]T, len(in))
	for i, v := range in {
		out[i] = norm(v)
	}
	slices.SortFunc(out, order)
	return out
}

// compareLinks orders links by router, then port.
func compareLinks(a, b LinkID) int {
	return cmp.Or(cmp.Compare(a.Router, b.Router), cmp.Compare(a.Port, b.Port))
}

// event spells a link event the schedule's way.
func (ev FaultEvent) event() topology.Event {
	return topology.Event{At: ev.At, Repair: ev.Repair, Router: ev.Link.Router, Port: ev.Link.Port}
}

// canonical returns the spec with links named from their lower-id end,
// duplicates removed, links sorted, events in topology.CompareEvents order
// (exact-duplicate events are kept: applying one twice is harmless, and
// cache keys have always counted both), and router, bundle
// and flap lists normalized, deduplicated and sorted, so two spellings of
// one scenario hash and simulate identically. p must be the topology of
// the spec's Config.H.
func (f *FaultSpec) canonical(p *topology.P) *FaultSpec {
	link := func(l LinkID) LinkID { return canonicalLink(p, l) }
	return &FaultSpec{
		GlobalFraction: f.GlobalFraction,
		LocalFraction:  f.LocalFraction,
		Links:          slices.Compact(sortedCopy(f.Links, link, compareLinks)),
		Events: sortedCopy(f.Events,
			func(ev FaultEvent) FaultEvent { ev.Link = link(ev.Link); return ev },
			func(a, b FaultEvent) int { return topology.CompareEvents(a.event(), b.event()) }),
		Routers: slices.Compact(sortedCopy(f.Routers,
			// "Failed from the start" has one spelling: cycle 0.
			func(rf RouterFault) RouterFault { rf.At = max(rf.At, 0); return rf },
			func(a, b RouterFault) int {
				return cmp.Or(cmp.Compare(a.Router, b.Router), cmp.Compare(a.At, b.At), cmp.Compare(a.Until, b.Until))
			})),
		Bundles: slices.Compact(sortedCopy(f.Bundles,
			func(b BundleFault) BundleFault {
				b.First, b.Last = min(b.First, b.Last), max(b.First, b.Last)
				b.At = max(b.At, 0)
				return b
			},
			func(a, b BundleFault) int {
				return cmp.Or(cmp.Compare(a.Group, b.Group), cmp.Compare(a.First, b.First), cmp.Compare(a.Last, b.Last),
					cmp.Compare(a.At, b.At), cmp.Compare(a.Until, b.Until))
			})),
		Flaps: slices.Compact(sortedCopy(f.Flaps,
			func(fl FlapSpec) FlapSpec { fl.Link = link(fl.Link); return fl },
			func(a, b FlapSpec) int {
				return cmp.Or(compareLinks(a.Link, b.Link), cmp.Compare(a.At, b.At), cmp.Compare(a.Period, b.Period),
					cmp.Compare(a.Down, b.Down), cmp.Compare(a.Count, b.Count))
			})),
	}
}

// compile expands the spec into its fault schedule: fractions drawn from
// seed, explicit links and failed-from-start routers and bundles in the boot
// set, scheduled outages, flaps and events in the event list.
// topology.NewSchedule orders the events and rejects a timeline that
// partitions the network, which cannot be simulated meaningfully. f is
// canonical: build compiles Canonical()'s spec.
func (f *FaultSpec) compile(p *topology.P, seed uint64) (*topology.Schedule, error) {
	set := topology.NewFaultSet(p)
	if f.GlobalFraction > 0 || f.LocalFraction > 0 {
		if err := topology.RandomFaults(set, f.GlobalFraction, f.LocalFraction, seed); err != nil {
			return nil, fmt.Errorf("dragonfly: %w", err)
		}
	}
	for _, l := range f.Links {
		set.SetLink(l.Router, l.Port, true)
	}
	var evs []topology.Event
	event := func(at int64, repair bool, router, port int) {
		evs = append(evs, topology.Event{At: at, Repair: repair, Router: router, Port: port})
	}
	router := func(r int, at, until int64) {
		if at <= 0 {
			set.SetRouter(r, true)
		} else {
			event(at, false, r, topology.WholeRouter)
		}
		if until > 0 {
			event(until, true, r, topology.WholeRouter)
		}
	}
	for _, rf := range f.Routers {
		router(rf.Router, rf.At, rf.Until)
	}
	for _, b := range f.Bundles {
		if b.First == 0 && b.Last == 0 {
			// Whole-group blackout: the routers go down with their
			// global-channel bundle (see BundleFault).
			for i := 0; i < p.RoutersPerGroup; i++ {
				router(p.RouterID(b.Group, i), b.At, b.Until)
			}
			continue
		}
		for i := b.First; i < b.Last; i++ {
			for j := i + 1; j <= b.Last; j++ {
				r, port := p.RouterID(b.Group, i), p.LocalPort(i, j)
				if b.At <= 0 {
					set.SetLink(r, port, true)
				} else {
					event(b.At, false, r, port)
				}
				if b.Until > 0 {
					event(b.Until, true, r, port)
				}
			}
		}
	}
	for _, fl := range f.Flaps {
		for k := 0; k < fl.Count; k++ {
			at := fl.At + int64(k)*fl.Period
			event(at, false, fl.Link.Router, fl.Link.Port)
			event(at+fl.Down, true, fl.Link.Router, fl.Link.Port)
		}
	}
	for _, ev := range f.Events {
		evs = append(evs, ev.event())
	}
	return topology.NewSchedule(set, evs)
}

// build validates the configuration and assembles the engine's inputs from
// Canonical() with Workers restored — the configuration the cache key
// hashes: topology, compiled workload and compiled fault schedule.
func (c Config) build() (engine.Config, error) {
	if err := c.Validate(); err != nil {
		return engine.Config{}, err
	}
	workers := c.Workers
	c = c.Canonical()
	p, err := topology.New(c.H)
	if err != nil {
		return engine.Config{}, err
	}
	w, err := c.buildWorkload(p)
	if err != nil {
		return engine.Config{}, err
	}
	ec := engine.Config{
		Topo: p,
		Spec: c.Mechanism.spec(),
		Routing: core.Config{
			Threshold:        c.Threshold,
			PBThreshold:      c.PBThreshold,
			RemoteCandidates: c.RemoteCandidates,
		},
		Flow:            engine.FlowControl(c.FlowControl),
		PacketPhits:     c.PacketPhits,
		BufLocal:        c.BufLocal,
		BufGlobal:       c.BufGlobal,
		InjQueuePackets: c.InjQueuePackets,
		LatLocal:        c.LatLocal,
		LatGlobal:       c.LatGlobal,
		Seed:            c.Seed,
		Workers:         workers,
		Workload:        w,
		WindowCycles:    c.WindowCycles,
		StaleCycles:     c.StaleCycles,
		Warmup:          c.Warmup,
		Measure:         c.Measure,
		MaxCycles:       c.MaxCycles,
		Watchdog:        c.Watchdog,
	}
	if c.Faults != nil { // Canonical drops a pristine spec
		if ec.Faults, err = c.Faults.compile(p, c.Seed); err != nil {
			return engine.Config{}, err
		}
	}
	return ec, nil
}

// buildWorkload assembles the compiled traffic.Workload behind whichever
// of the three configuration forms (trio, Phases, Workload) was used.
func (c Config) buildWorkload(p *topology.P) (*traffic.Workload, error) {
	specs := c.jobSpecs()
	multi := false
	if len(specs) > 1 || len(specs[0].Phases) > 1 {
		multi = true
	}
	jobs := make([]traffic.Job, len(specs))
	for ji, spec := range specs {
		first, last := spec.FirstNode, spec.LastNode
		if first == 0 && last == 0 {
			last = p.Nodes - 1
		}
		job := traffic.Job{First: first, Last: last}
		for _, ps := range spec.Phases {
			pattern, err := buildPattern(p, ps.Traffic)
			if err != nil {
				return nil, err
			}
			name, err := ps.Traffic.Name(c.H)
			if err != nil {
				return nil, err
			}
			ph := traffic.Phase{Pattern: pattern, Duration: ps.Duration, Label: name}
			if ps.BurstPackets > 0 {
				ph.Process, err = traffic.NewBurst(ps.BurstPackets, p.Nodes)
				ph.TotalPackets = int64(ps.BurstPackets) * int64(last-first+1)
				if multi {
					ph.Label = fmt.Sprintf("%s!%dpkts", name, ps.BurstPackets)
				}
			} else {
				ph.Process, err = traffic.NewBernoulli(ps.Load, c.PacketPhits)
				if multi {
					ph.Label = fmt.Sprintf("%s@%.3g", name, ps.Load)
				}
			}
			if err != nil {
				return nil, err
			}
			job.Phases = append(job.Phases, ph)
		}
		jobs[ji] = job
	}
	return traffic.NewWorkload(p.Nodes, jobs...)
}

func buildPattern(p *topology.P, tr Traffic) (traffic.Pattern, error) {
	switch tr.Kind {
	case UN:
		return traffic.NewUniform(p), nil
	case ADVG:
		return traffic.NewAdversarialGlobal(p, tr.offset())
	case ADVL:
		return traffic.NewAdversarialLocal(p, tr.offset())
	case MIX:
		g, err := traffic.NewAdversarialGlobal(p, p.H)
		if err != nil {
			return nil, err
		}
		l, err := traffic.NewAdversarialLocal(p, 1)
		if err != nil {
			return nil, err
		}
		return traffic.NewMix(g, l, tr.GlobalPercent/100)
	}
	return nil, fmt.Errorf("dragonfly: unknown traffic kind %d", tr.Kind)
}

// Sim is a prepared simulation: topology, routing tables and routers built,
// ready to run once (per-VC buffers and link rings are allocated lazily,
// on first use during the run). Prepare/Run separate construction cost
// from stepping cost so tools (the benchmark's direct door, paperfigs'
// scaling figure) can time the two apart; to run many configurations on
// one allocation, use a Runner.
type Sim struct {
	sim *engine.Sim
	// offered becomes Result.OfferedLoad: the engine sees a compiled
	// workload, not the load it was asked for.
	offered float64
}

// Prepare validates the configuration and builds the network without
// running it.
func Prepare(c Config) (*Sim, error) {
	var r Runner
	return r.prepare(c)
}

// Run executes the prepared simulation; like the package-level Run it can
// be called once per Sim.
func (s *Sim) Run() (Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the engine polls ctx
// every 1024 cycles and aborts the run with ctx's error, so campaign
// drivers can stop a simulation mid-point.
func (s *Sim) RunContext(ctx context.Context) (Result, error) {
	res, err := s.sim.RunContext(ctx)
	if err != nil {
		return Result{}, err
	}
	res.OfferedLoad = s.offered
	return res, nil
}

// Cycles returns the number of cycles actually simulated so far — after
// Run, the true run length even when a watchdog or burst drain ended the
// run away from the nominal warmup+measure window.
func (s *Sim) Cycles() int64 { return s.sim.Cycle() }

// Runner runs configurations one after another on one network allocation:
// the lane of a campaign. It keeps the network of the last configuration
// that ran to completion; when the next one has the same shape — the same
// h, VC counts, buffer sizes, packet size, injection queue depth, link
// latencies, effective Workers, job and tracked-phase counts — the
// network is re-initialised in place instead of being rebuilt, whatever
// else changed (mechanism, flow control, traffic, load, faults, seed, run
// length). A different shape releases the old network before the new one
// is built, so a Runner never holds two. Results are those of Run, bit for
// bit, and never alias the Runner's memory.
//
// The zero value is ready to use. A Runner must not be used from more than
// one goroutine at a time; give each concurrent lane its own.
type Runner struct {
	sim *engine.Sim // the network of the last completed run, nil when none
}

// prepare builds c's simulation on the Runner's network, which it takes
// out of the Runner: only a run that completes puts it back, so an
// invalid configuration, a canceled run or a panic all leave the Runner
// empty and the next configuration on a fresh network.
func (r *Runner) prepare(c Config) (*Sim, error) {
	es := r.sim
	r.sim = nil
	ec, err := c.build()
	if err != nil {
		return nil, err
	}
	if es == nil {
		es = new(engine.Sim)
	}
	if err := es.Init(ec); err != nil {
		return nil, err
	}
	return &Sim{sim: es, offered: c.normalize().offeredLoad()}, nil
}

// RunContext runs one configuration, reusing the Runner's network when c
// has its shape. Cancellation works as in Sim.RunContext.
func (r *Runner) RunContext(ctx context.Context, c Config) (Result, error) {
	s, err := r.prepare(c)
	if err != nil {
		return Result{}, err
	}
	res, err := s.RunContext(ctx)
	if err != nil {
		return Result{}, err
	}
	r.sim = s.sim
	return res, nil
}

// Release drops the Runner's network, returning its memory to the
// collector; the next run builds a fresh one. Idle lanes call it so they
// do not sit on a large fabric.
func (r *Runner) Release() { r.sim = nil }

// Run executes one experiment and returns its metrics. Deadlocks detected
// by the watchdog are reported via Result.Deadlock rather than an error so
// sweeps can record them.
func Run(c Config) (Result, error) {
	return RunContext(context.Background(), c)
}

// RunContext is Run with cooperative cancellation (see Sim.RunContext): a
// Runner used once.
func RunContext(ctx context.Context, c Config) (Result, error) {
	var r Runner
	return r.RunContext(ctx, c)
}

// NetworkSize returns (routers, nodes, groups) for a given h, for sizing
// reports and tools.
func NetworkSize(h int) (routers, nodes, groups int, err error) {
	p, err := topology.New(h)
	if err != nil {
		return 0, 0, 0, err
	}
	return p.Routers, p.Nodes, p.Groups, nil
}

// offeredLoad is the load reported in Result.OfferedLoad: the configured
// load for classic and one-phase configurations, zero for multi-phase
// workloads (whose per-phase loads live in the phase digests).
func (c Config) offeredLoad() float64 {
	if len(c.Phases) == 0 && len(c.Workload) == 0 {
		return c.Load
	}
	if ph := c.singlePhase(); ph != nil {
		return ph.Load
	}
	return 0
}
