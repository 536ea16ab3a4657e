// Package engine is the cycle-accurate dragonfly network simulator:
// FIFO input-buffered routers with per-VC buffers, credit-based VCT or
// wormhole flow control, phit-granularity links with configurable latency,
// and a crossbar moving at most one phit per input and per output port per
// cycle — the model used by the paper's in-house single-cycle simulator.
//
// All cross-router communication rides on time-indexed single-writer
// single-reader rings, so a simulation can be executed by several workers
// with results identical to serial execution. Groups talk to each other
// only over global links, so each group can run LatGlobal cycles ahead of
// the others without seeing them: the run advances in blocks of up to
// that many cycles (see Sim.blockMax), each worker taking one group at a
// time through the whole block while its state is still in cache, with
// one barrier per block.
//
// The clock moves only by blocks, and one function, Sim.nextEvent, sets
// each block's length: the block ends at the first cycle at which the
// serial section between blocks has a duty or anything else can change.
// Each node draws ahead, at once, the per-cycle traffic trials up to its
// next packet and keeps that cycle as an appointment; a router injects
// only on a cycle when one of its nodes has one. While the fabric is empty
// nothing can happen before the earliest appointment, so the block up to
// it is dead (Sim.deadSpan): its routers do not step, only the serial
// section runs.
//
// Stepping is activity-driven: senders record every phit and credit they
// put in flight on the receiving router's per-cycle arrival schedule,
// routers count the packet entries buffered in their input VCs, and a
// router with nothing buffered, nothing arriving and no appointment does
// no per-port work for the cycle. Progress totals are maintained
// incrementally per worker instead of being re-summed over all routers
// every cycle, and the parallel executor synchronizes blocks with an
// atomic generation barrier over a fixed partition of group-aligned
// router ranges.
package engine

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// ResultsVersion identifies the simulation semantics of this engine build.
// Result caches (internal/exp) key entries on it, so it MUST be bumped
// whenever a change alters any metrics.Result field for some configuration
// — and left alone for pure-performance changes that keep results
// bit-identical (the activity-driven refactor, for example, did not bump
// it). Version 2: phased workloads, windowed timelines and per-phase
// digests joined the result surface.
const ResultsVersion = 2

// Config describes one simulation run.
type Config struct {
	Topo *topology.P
	Spec core.Spec
	// Routing carries the misrouting trigger parameters; Routing.Topo and
	// the buffer sizes are filled from this Config automatically.
	Routing core.Config

	Flow        FlowControl
	PacketPhits int // packet size in phits

	BufLocal        int // phits per local input VC
	BufGlobal       int // phits per global input VC
	InjQueuePackets int // injection queue depth in packets
	LatLocal        int // local link latency in cycles
	LatGlobal       int // global link latency in cycles

	Seed uint64
	// Workers is the requested parallel-stepping width; <=1 runs serially.
	// The engine clamps it to runtime.GOMAXPROCS(0) (extra workers on an
	// oversubscribed machine only pay barrier cost) and to the group
	// count (a worker steps whole groups). The clamp never changes
	// results: serial and N-worker execution are bit-identical by contract.
	Workers int

	// Workload drives injection: each node follows the phase schedule of
	// its workload job (traffic.NewSingleWorkload wraps the classic one
	// pattern, one process, all nodes case).
	Workload *traffic.Workload

	// WindowCycles, when positive, adds a Timeline of fixed-width windows
	// over the whole run to the Result.
	WindowCycles int64

	// Faults, when non-nil, is the fault timeline: the boot state (the
	// engine works on a private clone) and the mid-run kills and repairs.
	// Events apply in the serial section between blocks, and no block
	// spans one, so routing sees fault state that is constant within a
	// block; this keeps results independent of the worker count.
	// Configurations without a timeline are unaffected: the fault queries
	// short-circuit and results stay bit-identical.
	Faults *topology.Schedule

	// StaleCycles delays the *routing view* of every fault event by this
	// many cycles: a link killed (or repaired) at cycle C changes flow
	// control immediately, but the fault set the mechanisms consult
	// (LinkDown/RouteDown/LocalDown/PortDead) only absorbs it at cycle
	// C+StaleCycles — modeling a fabric manager that needs time to detect
	// the event, broadcast it, and recompute routing tables. Zero (the
	// default) is instantaneous link-state knowledge: the view is the
	// physical set itself. Initial faults are always known at boot and
	// never stale.
	StaleCycles int64

	Warmup  int64 // steady-state: cycles before measurement starts
	Measure int64 // steady-state: measured cycles

	MaxCycles int64 // burst mode safety bound
	Watchdog  int64 // quiet cycles before declaring deadlock
}

// validate rejects configurations the mechanisms cannot support. The engine
// fills no defaults: every size, latency and bound must be given.
func (c *Config) validate() error {
	if c.Topo == nil {
		return fmt.Errorf("engine: nil topology")
	}
	if c.Workload == nil {
		return fmt.Errorf("engine: nil workload")
	}
	if c.WindowCycles < 0 {
		return fmt.Errorf("engine: negative metrics window %d", c.WindowCycles)
	}
	if min(c.PacketPhits, c.BufLocal, c.BufGlobal, c.InjQueuePackets, c.LatLocal, c.LatGlobal) < 1 || c.PacketPhits > MaxPacketPhits {
		return fmt.Errorf("engine: packet size %d (at most %d), buffers %d/%d, injection queue %d and latencies %d/%d must be positive",
			c.PacketPhits, MaxPacketPhits, c.BufLocal, c.BufGlobal, c.InjQueuePackets, c.LatLocal, c.LatGlobal)
	}
	if c.Watchdog < 1 || c.MaxCycles < 1 {
		return fmt.Errorf("engine: watchdog %d and MaxCycles %d must be positive", c.Watchdog, c.MaxCycles)
	}
	if c.Topo.Ports > 63 {
		// The activity bitmasks (router.claimPorts, router.xferPorts)
		// hold one bit per port, and the fault-drop sink claims bit
		// Topo.Ports; 63 ports covers every dragonfly up to h=16
		// (16,416 routers, 262,656 nodes).
		return fmt.Errorf("engine: %d ports per router exceeds the 63-port activity-mask limit", c.Topo.Ports)
	}
	if c.Faults != nil && c.Faults.Boot.Topology().Routers != c.Topo.Routers {
		return fmt.Errorf("engine: fault schedule describes a %d-router topology, network has %d",
			c.Faults.Boot.Topology().Routers, c.Topo.Routers)
	}
	if c.StaleCycles < 0 {
		return fmt.Errorf("engine: negative StaleCycles %d", c.StaleCycles)
	}
	if c.Flow != VCT && c.Flow != WH {
		return fmt.Errorf("engine: unknown flow control %v", c.Flow)
	}
	if c.Flow == VCT {
		if c.BufLocal < c.PacketPhits || c.BufGlobal < c.PacketPhits {
			return fmt.Errorf("engine: VCT needs buffers >= packet size (%d/%d < %d)",
				c.BufLocal, c.BufGlobal, c.PacketPhits)
		}
	}
	return nil
}

// progress holds one worker's incrementally-maintained progress counters.
// The watchdog, the drain test and the dead-block test read their sum
// instead of re-scanning every router. inflight is a delta — the sender's
// worker counts a phit or credit up, the receiver's counts it down — so one
// worker's value can go negative and only the sum over all workers is
// meaningful (and exact). Padded so workers never share a cache line.
type progress struct {
	moved     int64 // crossbar phit movements (all-time)
	live      int64 // injected minus delivered packets
	generated int64 // all-time injected packets
	occ       int64 // buffered packet entries currently held
	inflight  int64 // phits + credits in flight (sends minus receipts)
	_         [3]int64
}

// cycleDelta is one cycle of a block as one worker saw it: the phits its
// routers moved and the change in their live packets, summed over the
// groups it stepped. The run loop sums the workers' deltas to replay the
// watchdog cycle by cycle.
type cycleDelta struct {
	moved, live int64
}

// rangesPerWorker is how many contiguous group ranges each worker steps
// (fewer when the fabric has fewer groups). The ranges are dealt
// round-robin, so a job that occupies one contiguous part of the machine
// (the one load imbalance the workloads produce) still lands on every
// worker; one range per group measured no faster at h=8
// (docs/PERFORMANCE.md).
const rangesPerWorker = 4

// shape is everything about a configuration that sizes memory, and nothing
// else: two configurations of equal shape run on the same allocation,
// whatever their mechanism, flow control, traffic, faults, seed or length.
// It is comparable, so "can this Sim be re-initialised for that config" is
// one ==.
type shape struct {
	topo                topology.P // by value: a dragonfly is a function of h
	localVCs, globalVCs int        // per local / global port: VC buffers, credits, transfers, plans
	bufLocal, bufGlobal int        // phits per VC: entry-ring sizes
	packetPhits         int        // entry-ring sizes, injection queue capacity
	injQueuePackets     int
	latLocal, latGlobal int // link ring and arrival-slot ring lengths
	workers             int // effective stepping width: stripes, sheets, progress counters, packet lists, atomic vs plain arrival masks
	jobs                int // workload jobs: per-router and dead-block phase cursors
	phases              int // tracked workload phases: per-sheet phase cells
}

// Sim is an instantiated simulation: an allocation sized by a shape (see
// allocate) holding the state of one configuration (see init). A Sim runs
// once per Init; Init on a Sim that already ran re-initialises it in place
// when the next configuration has the same shape.
type Sim struct {
	cfg      Config
	shape    shape
	topo     *topology.P
	tab      *core.Tables // routing tables shared by every worker's Algorithm
	routers  []router
	workload *traffic.Workload

	// arrSlots is the one arena behind every router's arrival schedule.
	arrSlots []arrivalSlot
	// arena owns every packet; the workers' lists (pkts) hand them out.
	arena *packetArena

	// pb holds each group's Piggybacking congestion bits, double-buffered
	// by cycle parity: routing at cycle c reads pb[g][c&1] and the group's
	// routers publish into pb[g][(c+1)&1], so each group's bits follow its
	// own clock through a block.
	pbEnabled bool
	pb        [][2][]bool

	// The partition: worker w of shape.workers (Config.Workers clamped to
	// runtime.GOMAXPROCS(0) and the group count when the fabric was
	// allocated) steps the group-aligned router ranges [bounds[i],
	// bounds[i+1]) with i % workers == w, and owns one sheet, one progress
	// block, one packet list, one routing algorithm and one row of cycle
	// deltas. All of it is fixed by allocate.
	bounds   []int
	sheets   []metrics.Sheet
	progress []progress
	pkts     []packetList
	algs     []core.Algorithm
	deltas   [][]cycleDelta

	// blockMax is the longest block: min(LatGlobal, ring length -
	// LatGlobal, arrival-ring length - LatGlobal). A group's routers step
	// through a block together, but two groups may be up to a block apart
	// in simulated time; only global links join them, and a global phit or
	// credit sent in a block arrives after it (n <= LatGlobal) without
	// lapping a ring slot its reader has yet to drain (n <= ring length -
	// LatGlobal). No ring grows for it: 28 cycles at LatGlobal 100, 16 at
	// 16, 1 at 1.
	blockMax int

	// ffJumped counts the cycles dead blocks covered (observability for
	// tests and tools); noDead, a test hook, makes no block dead.
	ffJumped int64
	noDead   bool

	// faults is the live link-failure state (a private clone of
	// Config.Faults.Boot), mutated only between blocks; faulted is true as
	// soon as a run has a fault schedule, and gates every fault query so
	// fault-free runs keep their exact pre-fault behavior.
	faults    *topology.FaultSet
	faulted   bool
	events    []topology.Event // Config.Faults.Events; nil without a schedule
	nextFault int              // index of the first unapplied event

	// view is the link state the routing mechanisms see (core.View's
	// LinkDown/PortDead/RouteDown/LocalDown read it): faults itself while
	// the view cannot lag — Config.StaleCycles == 0, or no mid-run event —
	// and otherwise a clone that absorbs every event StaleCycles late, in
	// the same serial section.
	view           *topology.FaultSet
	nextRouteFault int // first event the view has not absorbed; never past nextFault

	// hopLimit, when positive, drops any packet whose hop count exceeds
	// it: the livelock guard, armed only for schedules with RouterFaults.
	// A dead router severs OFAR's escape ring (losing its delivery
	// guarantee) and can leave adaptive mechanisms bouncing a packet
	// between live routers indefinitely; the budget is several full
	// escape-ring laps. Fault-free and link-only runs keep it zero, so
	// their behavior is untouched.
	hopLimit int32

	// routeEpoch numbers the routing view's changes: it bumps once per
	// serial section in which the view absorbed fault events, invalidating
	// every router's cached head plans (which bake the fault view into
	// their candidate geometry). Fault-free runs keep epoch 1 forever, so
	// plans live until their head packet moves on.
	routeEpoch uint64

	cycle int64
	end   int64 // the run's last cycle + 1: warmup + measure, or MaxCycles for a finite workload
	ready bool  // Init succeeded and Run has not started
}

// New builds the network for cfg: Init on the zero Sim.
func New(cfg Config) (*Sim, error) {
	s := new(Sim)
	if err := s.Init(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Init makes s a simulation of cfg at cycle 0, ready to Run — whatever s
// was before: the zero Sim, or one whose run completed, was canceled or
// panicked. Fresh and recycled Sims take the same path: allocate by shape
// when s has no fabric of cfg's shape (dropping the one it has first, so
// two fabrics never coexist), then init, which alone writes initial
// state. Results do not depend on what s held. On error s is unchanged.
func (s *Sim) Init(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if s.topo != nil && *s.topo == *cfg.Topo {
		// Same dragonfly: keep our P, so an unchanged (Spec, Routing)
		// compares equal below.
		cfg.Topo = s.topo
	}
	p := cfg.Topo
	cfg.Routing.Topo = p
	cfg.Routing.BufLocal, cfg.Routing.BufGlobal = cfg.BufLocal, cfg.BufGlobal
	// One shared table set per simulation: minimal next-hop rows, the
	// global-port matrix, the pair-restricted detour candidate lists and
	// the occupancy-fraction rows are computed once and consulted
	// read-only by every router. They depend on (Spec, Routing) alone.
	tab := s.tab
	if tab == nil || s.cfg.Spec != cfg.Spec || s.cfg.Routing != cfg.Routing {
		var err error
		if tab, err = core.NewTables(cfg.Spec, cfg.Routing); err != nil {
			return err
		}
	}
	if cfg.Spec.RequiresVCT() && cfg.Flow != VCT {
		return fmt.Errorf("engine: %s requires VCT flow control", cfg.Spec)
	}
	localVCs, globalVCs := cfg.Spec.VCs()
	if localVCs > 16 || globalVCs > 16 {
		// router.claimVCs holds one claimable bit per VC in a uint16;
		// without this guard a wider algorithm would silently lose heads.
		return fmt.Errorf("engine: %d/%d VCs per port exceeds the 16-VC activity-mask limit",
			localVCs, globalVCs)
	}

	// Effective worker count: more workers than CPUs only adds barrier
	// latency (results are identical at any width, so the clamp is free),
	// and more workers than groups leaves some idle.
	workers := max(1, min(cfg.Workers, runtime.GOMAXPROCS(0), p.Groups))
	// Per-phase digests only earn their keep on multi-phase workloads; a
	// one-phase digest would duplicate the main Result.
	phases := 0
	if n := cfg.Workload.TotalPhases(); n > 1 {
		phases = n
	}
	sh := shape{
		topo:     *p,
		localVCs: localVCs, globalVCs: globalVCs,
		bufLocal: cfg.BufLocal, bufGlobal: cfg.BufGlobal,
		packetPhits: cfg.PacketPhits, injQueuePackets: cfg.InjQueuePackets,
		latLocal: cfg.LatLocal, latGlobal: cfg.LatGlobal,
		workers: workers, jobs: len(cfg.Workload.Jobs), phases: phases,
	}
	if sh != s.shape {
		*s = Sim{} // drop the old fabric before building the next
		s.allocate(sh, p)
	}
	s.init(cfg, tab)
	return nil
}

// allocate builds the fabric of a shape: routers, ports, VC buffer
// headers, credit and transfer slots, plan slots, RNG streams, links and
// their wiring, the arrival-slot arena, and the partition of the routers
// over the workers with each worker's sheet, progress block, packet list
// and routing algorithm. Each per-router, per-port and per-VC field is one
// fabric-wide array in router order — which is group order — and each
// router's slices are windows of it, so a build costs the same few
// allocations at any size and a group's state sits together in memory. It
// fixes dimensions and pointers only; every value a run starts from is
// written by init.
func (s *Sim) allocate(sh shape, p *topology.P) {
	s.shape = sh
	s.topo = p
	n := p.Routers
	s.routers = make([]router, n)
	s.sheets = make([]metrics.Sheet, sh.workers)
	s.progress = make([]progress, sh.workers)
	s.pkts = make([]packetList, sh.workers)
	s.arena = new(packetArena)
	s.algs = make([]core.Algorithm, sh.workers)

	// One router's layout, the same for every router. One extra output
	// port (index p.Ports) is the fault-drop sink: a linkless
	// pseudo-output that drains unroutable packets through the ordinary
	// transfer machinery — one phit per cycle, credits returned upstream as
	// usual — so conservation and determinism hold for faulted runs.
	// Fault-free runs never claim it. VC entry rings and link rings are
	// allocated lazily on first use (see vcBuffer and link), so a buffer or
	// link no traffic ever reaches costs only its header — the bulk of a
	// large fabric's idle state.
	inVCs := p.LocalPorts*sh.localVCs + p.GlobalPorts*sh.globalVCs + p.H
	outVCs := inVCs + 1
	linksPer := p.EjectPortBase()
	ins := make([]inPort, n*p.Ports)
	outs := make([]outPort, n*(p.Ports+1))
	vcs := make([]vcBuffer, n*inVCs)
	plans := make([]core.Plan, n*inVCs)
	credits := make([]int32, n*outVCs)
	transfers := make([]transfer, n*outVCs)
	claimVCs := make([]uint16, n*p.Ports)
	phaseCur := make([]int32, n*sh.jobs)
	nodePhase := make([]nodePhase, n*p.H)
	nodeRand := make([]rng.PCG, n*p.H)
	links := make([]link, n*linksPer)

	// The partition is a function of the shape alone: contiguous ranges of
	// whole groups, dealt round-robin. A router never changes workers,
	// which is what lets sheets, progress counters and packet lists go
	// unsynchronized, and a group never spans two, which is what lets a
	// worker take it through a block alone.
	s.bounds = rangeBounds(p, min(sh.workers*rangesPerWorker, p.Groups))
	for i := 0; i+1 < len(s.bounds); i++ {
		w := i % sh.workers
		for id := s.bounds[i]; id < s.bounds[i+1]; id++ {
			r := &s.routers[id]
			r.sheet, r.prog, r.pkts = &s.sheets[w], &s.progress[w], &s.pkts[w]
		}
	}

	// One arena for every router's arrival-schedule slots, laid out in
	// router (and therefore range) order: the cross-worker-written slots
	// stay out of the router structs' cache lines.
	slotsPer := arrivalSlotCount(max(sh.latLocal, sh.latGlobal))
	s.arrSlots = make([]arrivalSlot, n*slotsPer)

	s.blockMax = min(sh.latGlobal, arrivalSlotCount(sh.latGlobal)-sh.latGlobal, slotsPer-sh.latGlobal)
	s.deltas = make([][]cycleDelta, sh.workers)
	for w := range s.deltas {
		s.deltas[w] = make([]cycleDelta, s.blockMax)
	}

	for id := range s.routers {
		r := &s.routers[id]
		r.id = id
		r.group = int32(p.GroupOf(id))
		r.eng = s
		r.pktSize = int32(sh.packetPhits)
		r.in, r.claimVCs = window(ins, id, p.Ports), window(claimVCs, id, p.Ports)
		r.out = window(outs, id, p.Ports+1)
		r.vcs, r.plans = window(vcs, id, inVCs), window(plans, id, inVCs)
		r.credits, r.transfers = window(credits, id, outVCs), window(transfers, id, outVCs)
		r.phaseCur = window(phaseCur, id, sh.jobs)
		r.nodePhase, r.nodeRand = window(nodePhase, id, p.H), window(nodeRand, id, p.H)
		r.arrivals.init(window(s.arrSlots, id, slotsPer), sh.workers <= 1)

		// Input VCs and output VCs are numbered port by port; an
		// injection port has one VC and an ejection port one transfer
		// slot, and the drop sink takes the last.
		vc := int32(0)
		for port := 0; port <= p.Ports; port++ {
			nvc, capPhits := 1, sh.injQueuePackets*sh.packetPhits
			switch {
			case p.IsLocalPort(port):
				nvc, capPhits = sh.localVCs, sh.bufLocal
			case p.IsGlobalPort(port):
				nvc, capPhits = sh.globalVCs, sh.bufGlobal
			}
			op := &r.out[port]
			op.base, op.nvc = vc, uint8(nvc)
			if port < linksPer {
				op.capacity = int32(capPhits)
				op.global = p.IsGlobalPort(port)
			}
			if port < p.Ports {
				r.in[port].vc0 = vc
				entN := ringEntries(capPhits, sh.packetPhits)
				for i := range nvc {
					r.vcs[int(vc)+i].init(capPhits, entN)
				}
			}
			vc += int32(nvc)
		}
	}

	// Wire the links: the sender's output port drives its link; the
	// receiver's input port reads it. Each side's arrival schedule is
	// where the opposite side announces in-flight phits and credits.
	for id := range s.routers {
		r := &s.routers[id]
		for port := 0; port < linksPer; port++ {
			l := &links[id*linksPer+port]
			lat := sh.latLocal
			if p.IsGlobalPort(port) {
				lat = sh.latGlobal
			}
			l.init(lat)
			r.out[port].link = l
			rr, rp := p.LinkTarget(id, port)
			s.routers[rr].in[rp].link = l
			l.phitSched = &s.routers[rr].arrivals
			l.phitPort = int16(rp)
			l.creditSched = &r.arrivals
			l.creditPort = int16(port)
		}
	}
}

// window returns router id's part of a fabric-wide array with per
// elements per router.
func window[T any](a []T, id, per int) []T {
	return a[id*per : (id+1)*per : (id+1)*per]
}

// init writes the cycle-0 state of a run of cfg over the allocation: the
// only code that does, for a fresh Sim and a recycled one alike. The
// allocation (and whatever rings and packets an earlier run grew) stays;
// every other field of the Sim and of each router returns to its zero
// value before the configuration is applied, so nothing a previous run
// left — mid-flight packets, credits, transfers, cached plans, fault state
// — can reach this one. Every packet goes back to a worker list, buffered
// or on a wire when the last run ended or not. Per-worker algorithms are
// rebuilt only when the tables changed.
func (s *Sim) init(cfg Config, tab *core.Tables) {
	newTab := tab != s.tab
	*s = Sim{
		shape: s.shape, topo: s.topo, routers: s.routers, arrSlots: s.arrSlots, arena: s.arena,
		bounds: s.bounds, sheets: s.sheets, progress: s.progress, pkts: s.pkts, algs: s.algs,
		deltas: s.deltas, blockMax: s.blockMax, pb: s.pb,

		cfg:        cfg,
		tab:        tab,
		workload:   cfg.Workload,
		pbEnabled:  cfg.Spec == core.PB,
		routeEpoch: 1, // zero-valued plans are invalid by construction
		end:        cfg.Warmup + cfg.Measure,
	}
	if cfg.Workload.Finite() {
		s.end = cfg.MaxCycles
	}
	p := s.topo
	clear(s.progress)
	clear(s.arrSlots)
	s.arena.deal(s.pkts)
	s.reservePackets()
	for i := range s.sheets {
		s.sheets[i].Configure(cfg.WindowCycles, s.shape.phases)
	}
	if s.pbEnabled {
		if s.pb == nil {
			c := p.ChannelsPerGrp
			flat := make([]bool, 2*c*p.Groups)
			s.pb = make([][2][]bool, p.Groups)
			for g := range s.pb {
				s.pb[g] = [2][]bool{flat[2*g*c : (2*g+1)*c], flat[(2*g+1)*c : (2*g+2)*c]}
			}
		}
		for g := range s.pb {
			clear(s.pb[g][0])
			clear(s.pb[g][1])
		}
	}
	// Algorithms keep scratch state only within one call, so the routers
	// of one worker share one.
	for w := range s.algs {
		if newTab {
			s.algs[w] = tab.NewAlgorithm()
		}
	}
	for i := 0; i+1 < len(s.bounds); i++ {
		for id := s.bounds[i]; id < s.bounds[i+1]; id++ {
			r := &s.routers[id]
			if newTab {
				r.alg = s.algs[i%s.shape.workers]
			}
			r.reset(cfg.Flow, cfg.Seed)
		}
	}
	if sched := cfg.Faults; sched != nil {
		// Boot faults are known at boot: the routing view starts from the
		// same state, whatever the staleness.
		s.faulted = true
		s.faults = sched.Boot.Clone()
		s.events = sched.Events
		for id := range s.routers {
			s.routers[id].deadPorts = s.faults.PortMask(id)
			s.routers[id].parked = s.faults.RouterDown(id)
		}
		s.view = s.faults
		if cfg.StaleCycles > 0 && len(s.events) > 0 {
			s.view = s.faults.Clone()
		}
		if sched.RouterFaults {
			s.hopLimit = int32(4*(p.Routers+p.Groups) + 64)
		}
	}
	s.ready = true
}

// pendingFaultEvents reports whether any fault event still awaits its
// (possibly stale) routing-view application — and therefore, possibly, its
// physical one.
func (s *Sim) pendingFaultEvents() bool { return s.nextRouteFault < len(s.events) }

// applyFaultEvents applies every fault event due at the current cycle —
// to the physical set (and the dead-port masks gating flow control) at event
// time, and to the routing view StaleCycles later. Only called from the
// serial section between blocks.
func (s *Sim) applyFaultEvents() {
	evs := s.events
	for ; s.nextFault < len(evs) && evs[s.nextFault].At <= s.cycle; s.nextFault++ {
		ev := evs[s.nextFault]
		changed := s.faults.Apply(ev.Router, ev.Port, !ev.Repair)
		r := &s.routers[ev.Router]
		r.deadPorts, r.parked = s.faults.PortMask(ev.Router), s.faults.RouterDown(ev.Router)
		for m := changed; m != 0; m &= m - 1 {
			far, _ := s.topo.LinkTarget(ev.Router, bits.TrailingZeros64(m))
			s.routers[far].deadPorts = s.faults.PortMask(far)
		}
	}
	absorbed := false
	for ; s.nextRouteFault < len(evs) && evs[s.nextRouteFault].At+s.cfg.StaleCycles <= s.cycle; s.nextRouteFault++ {
		if s.view != s.faults {
			ev := evs[s.nextRouteFault]
			s.view.Apply(ev.Router, ev.Port, !ev.Repair)
		}
		absorbed = true
	}
	if absorbed {
		// Every cached head plan baked the old view into its candidate
		// geometry: force rebuilds. One bump per serial section, whatever
		// the burst of events held, so it costs one plan rebuild.
		s.routeEpoch++
	}
}

// nextEvent returns the cycle at which the block starting at s.cycle ends:
// the first cycle at which the serial section has a duty or anything can
// change. Every block ends by the end of the run, the warmup boundary, the
// next cancellation poll, the next fault event and the next routing-view
// horizon. A stepped block also ends within blockMax cycles, at the first
// cycle the watchdog (quiet for quiet cycles so far) could fire, and after
// one cycle in a finite workload, whose drain test needs the exact cycle.
// A dead block (wake > s.cycle, see deadSpan) steps no router, so none of
// those three binds it; it ends instead at wake, the earliest appointment,
// and, in a finite workload, at the last phase change, after which the
// drain test needs every cycle again.
func (s *Sim) nextEvent(quiet, wake int64) int64 {
	next := min(s.end, (s.cycle|ctxCheckMask)+1)
	if s.cycle < s.cfg.Warmup {
		next = min(next, s.cfg.Warmup)
	}
	if s.nextFault < len(s.events) {
		next = min(next, s.events[s.nextFault].At)
	}
	if s.nextRouteFault < len(s.events) {
		next = min(next, s.events[s.nextRouteFault].At+s.cfg.StaleCycles)
	}
	w := s.workload
	switch {
	case wake > s.cycle:
		next = min(next, wake)
		if w.Finite() {
			next = min(next, max(w.LastChange(), s.cycle+1))
		}
	case w.Finite():
		next = s.cycle + 1
	default:
		next = min(next, s.cycle+int64(s.blockMax), s.cycle+s.cfg.Watchdog-quiet)
	}
	return next
}

// stepWorker takes worker w's ranges through the n cycles of the block
// starting at s.cycle, one group at a time: a group's routers step in
// ascending order through all n cycles before the next group starts, so
// the group's state stays in cache for the whole block. Each cycle's
// progress lands in the worker's cycle deltas.
func (s *Sim) stepWorker(w, n int) {
	c := s.cycle
	prog := &s.progress[w]
	deltas := s.deltas[w][:n]
	clear(deltas)
	rpg := s.topo.RoutersPerGroup
	for i := w; i+1 < len(s.bounds); i += s.shape.workers {
		for lo := s.bounds[i]; lo < s.bounds[i+1]; lo += rpg {
			group := s.routers[lo : lo+rpg]
			for k := range deltas {
				moved, live := prog.moved, prog.live
				for j := range group {
					group[j].step(c + int64(k))
				}
				deltas[k].moved += prog.moved - moved
				deltas[k].live += prog.live - live
			}
		}
	}
}

// stepBlock advances the whole network n cycles on the calling goroutine:
// every worker's ranges in turn, then the serial section.
func (s *Sim) stepBlock(n int) {
	for w := range s.shape.workers {
		s.stepWorker(w, n)
	}
	s.finishBlock(n)
}

// finishBlock is the serial section between blocks, stepped or dead: the
// clock moves past the block and the fault events due at the new cycle
// apply. It is the only place either happens.
func (s *Sim) finishBlock(n int) {
	s.cycle += int64(n)
	if s.pendingFaultEvents() {
		s.applyFaultEvents()
	}
	s.reservePackets()
}

// totals sums the per-worker progress counters (O(workers), not
// O(routers); the counters are maintained incrementally as packets move).
func (s *Sim) totals() (moved, live, generated int64) {
	for i := range s.progress {
		p := &s.progress[i]
		moved += p.moved
		live += p.live
		generated += p.generated
	}
	return
}

// deadSpan returns the cycle up to which the block starting at s.cycle is
// dead, or s.cycle if it is not. While the fabric is empty (no buffered
// packet entry, no phit or credit in flight) and no Piggybacking cooldown
// owes a table write, nothing can happen before the earliest router's
// injectAt: every node's draws up to its appointment are made, and every
// phase change is a refresh no appointment lies beyond. Stepping those
// cycles would touch no state but the clock, so a dead block steps no
// router and results stay bit-identical.
func (s *Sim) deadSpan() int64 {
	var occ, inflight int64
	for i := range s.progress {
		occ += s.progress[i].occ
		inflight += s.progress[i].inflight
	}
	if s.noDead || occ != 0 || inflight != 0 {
		return s.cycle
	}
	wake := s.end
	for i := range s.routers {
		r := &s.routers[i]
		if r.pbCooldown > 0 {
			// With the fabric empty, cooldowns drain within two idle steps.
			return s.cycle
		}
		wake = min(wake, r.injectAt)
	}
	return wake
}

// lastDelivery returns the latest delivery cycle across routers.
func (s *Sim) lastDelivery() int64 {
	var last int64 = -1
	for i := range s.routers {
		if s.routers[i].lastDeliveryCycle > last {
			last = s.routers[i].lastDeliveryCycle
		}
	}
	return last
}

// resetSheets clears measurement state at the warmup boundary.
func (s *Sim) resetSheets() {
	for i := range s.sheets {
		s.sheets[i].Reset()
	}
}

// Run executes the experiment: warmup plus measurement for steady-state
// traffic processes, or run-to-drain for finite (burst) processes. It
// returns the digested metrics. A deadlock detected by the watchdog is
// reported through Result.Deadlock, not an error.
func (s *Sim) Run() (metrics.Result, error) {
	return s.RunContext(context.Background())
}

// ctxCheckMask throttles cancellation polls to one every 1024 cycles, so
// the check never shows up on the stepping profile.
const ctxCheckMask = 1<<10 - 1

// RunContext is Run with cooperative cancellation: the stepping loop polls
// ctx every 1024 cycles and aborts with ctx's error, so an orchestrator
// can stop a campaign mid-point.
func (s *Sim) RunContext(ctx context.Context) (metrics.Result, error) {
	if !s.ready {
		return metrics.Result{}, fmt.Errorf("engine: Sim.Run called twice (a Sim runs once per Init)")
	}
	s.ready = false

	step := s.stepBlock
	if s.shape.workers > 1 {
		var stop func()
		step, stop = s.startWorkers()
		// stop joins the workers: a Sim that returned from Run is quiescent.
		defer stop()
	}

	deadlock, err := s.run(ctx, step)
	if err != nil {
		return metrics.Result{}, err
	}

	var sheet metrics.Sheet
	sheet.Configure(s.cfg.WindowCycles, s.shape.phases)
	for i := range s.sheets {
		sheet.Merge(&s.sheets[i])
	}
	cycles := s.cfg.Measure
	if s.workload.Finite() {
		cycles = s.cycle
	}
	p := s.topo
	res := metrics.Digest(&sheet, cycles, p.Nodes,
		p.Routers*p.LocalPorts, p.Routers*p.GlobalPorts)
	res.Mechanism = s.cfg.Spec.String()
	res.Pattern = s.workload.Name()
	res.FlowControl = s.cfg.Flow.String()
	res.Deadlock = deadlock
	res.PhitsMoved, _, _ = s.totals()
	if s.workload.Finite() {
		res.ConsumptionCycles = s.lastDelivery()
	}
	res.Timeline = sheet.Timeline(s.cycle, p.Nodes)
	res.PhaseDigests = sheet.PhaseDigests(s.phaseInfos(), s.cycle)
	return res, nil
}

// phaseInfos flattens the workload's schedules into the digest metadata,
// indexed by workload-global phase id.
func (s *Sim) phaseInfos() []metrics.PhaseInfo {
	w := s.workload
	infos := make([]metrics.PhaseInfo, 0, w.TotalPhases())
	for ji := range w.Jobs {
		j := &w.Jobs[ji]
		for pi := range j.Phases {
			infos = append(infos, metrics.PhaseInfo{
				Label:    j.Phases[pi].Label,
				Nodes:    j.Nodes(),
				Start:    j.Start(pi),
				Duration: j.Phases[pi].Duration,
			})
		}
	}
	return infos
}

// run takes the simulation to its end, block by block (see nextEvent), and
// reports whether it deadlocked. A block is stepped, or dead (see deadSpan)
// and then only its serial section runs. A steady workload runs warmup then
// measurement, the sheets reset at the boundary; a finite one runs until
// every packet drained, and one that has not by MaxCycles is reported as a
// deadlock, like the watchdog's verdict.
func (s *Sim) run(ctx context.Context, step func(n int)) (deadlock bool, err error) {
	finite := s.workload.Finite()
	target, lastChange := s.workload.Total(), s.workload.LastChange()
	var lastGenerated, quiet int64
	for s.cycle < s.end {
		if s.cycle&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return false, fmt.Errorf("engine: canceled at cycle %d: %w", s.cycle, err)
			}
		}
		if !finite && s.cycle == s.cfg.Warmup {
			s.resetSheets()
		}
		_, live, _ := s.totals()
		wake := s.cycle
		if live == 0 {
			wake = s.deadSpan()
		}
		n := int(s.nextEvent(quiet, wake) - s.cycle)
		if wake > s.cycle {
			// Nothing is live, so quiet is already zero and stays so.
			s.ffJumped += int64(n)
			s.finishBlock(n)
		} else {
			step(n)
			// The watchdog, cycle by cycle: quiet counts the cycles in a
			// row that moved no phit while packets were live.
			for k := range n {
				var moved int64
				for w := range s.deltas {
					moved += s.deltas[w][k].moved
					live += s.deltas[w][k].live
				}
				if moved == 0 && live > 0 {
					quiet++
				} else {
					quiet = 0
				}
			}
		}
		_, live, generated := s.totals()
		// Drained: everything declared was generated, or — a burst phase cut
		// short by its duration leaves that unreachable — the phase set is
		// static (past the last transition) and an empty network generated
		// nothing in the last cycle. The second clause can misfire: a node
		// whose injection queue is full generates nothing, and the queue's
		// last packet can then be delivered (or dropped) later in the same
		// cycle, so the run ends while nodes still hold unsent packets.
		// Fixing it changes results, so it waits for a ResultsVersion bump.
		if finite && live == 0 && (generated >= target || (generated == lastGenerated && s.cycle > lastChange)) {
			return false, nil
		}
		if quiet >= s.cfg.Watchdog {
			return true, nil
		}
		lastGenerated = generated
	}
	return finite, nil
}

// rangeBounds cuts p's routers into n <= p.Groups contiguous ranges of
// whole groups, so the densely-communicating routers of one group
// (complete local-link graph) stay with one worker and in its cache.
func rangeBounds(p *topology.P, n int) []int {
	bounds := make([]int, n+1)
	for i := range bounds {
		bounds[i] = (i * p.Groups / n) * p.RoutersPerGroup
	}
	return bounds
}

// blockBarrier synchronizes the block lockstep between the main loop and
// the workers with two atomic generation counters instead of per-worker
// channel operations: the main loop sets n and bumps startGen to release
// every worker for one block, and the last worker to finish bumps doneGen.
// Waiters spin briefly and then yield, so the barrier stays correct (if
// slower) even when workers outnumber CPUs.
type blockBarrier struct {
	startGen atomic.Uint64
	doneGen  atomic.Uint64
	arrived  atomic.Int32
	quit     atomic.Bool
	n        int // the block's length; written before startGen is bumped
}

// await spins until gen differs from last, returning the new value.
func (b *blockBarrier) await(gen *atomic.Uint64, last uint64) uint64 {
	for spins := 0; ; spins++ {
		if v := gen.Load(); v != last {
			return v
		}
		if spins > 32 {
			runtime.Gosched()
		}
	}
}

// startWorkers launches the persistent workers and returns a step function
// driving one barrier-synchronized block, plus a stop function. Who steps
// what was fixed by allocate; this only starts the goroutines.
func (s *Sim) startWorkers() (step func(n int), stop func()) {
	workers := s.shape.workers
	b := &blockBarrier{}
	// Worker 0's ranges run on the calling goroutine, so only workers-1
	// goroutines are launched and none ever just spins through a block.
	var running sync.WaitGroup
	for w := 1; w < workers; w++ {
		running.Add(1)
		go func(w int) {
			defer running.Done()
			var seen uint64
			for {
				seen = b.await(&b.startGen, seen)
				if b.quit.Load() {
					return
				}
				s.stepWorker(w, b.n)
				if b.arrived.Add(1) == int32(workers-1) {
					b.arrived.Store(0)
					b.doneGen.Add(1)
				}
			}
		}(w)
	}
	step = func(n int) {
		b.n = n
		done := b.doneGen.Load()
		b.startGen.Add(1)
		s.stepWorker(0, n)
		b.await(&b.doneGen, done)
		s.finishBlock(n)
	}
	// stop releases the workers one last time with quit raised and waits
	// for every one of them to return, so no goroutine outlives the run
	// and the Sim's memory has a single owner again.
	stop = func() {
		b.quit.Store(true)
		b.startGen.Add(1)
		running.Wait()
	}
	return step, stop
}

// Cycle returns the current simulation cycle (for tests and tooling).
func (s *Sim) Cycle() int64 { return s.cycle }
