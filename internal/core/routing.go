// Package core implements the routing mechanisms studied in García et al.,
// "Efficient Routing Mechanisms for Dragonfly Networks" (ICPP 2013): the
// baselines Minimal, Valiant and Piggybacking, the naïve PAR-6/2, and the
// paper's two contributions, Restricted Local Misrouting (RLM) and
// Opportunistic Local Misrouting (OLM).
//
// The package is engine-agnostic: a routing Algorithm sees the router it
// runs on through the View interface (downstream buffer occupancies, claim
// feasibility, Piggybacking congestion bits) and records per-packet
// progress in a PacketState. An Algorithm instance serves one goroutine
// (the engine makes one per worker), so implementations may keep scratch
// state without locking.
package core

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Spec identifies a routing mechanism.
type Spec int

// The mechanisms evaluated in the paper, plus the sign-only RLM ablation
// and OFAR, the prior local+global misrouting scheme of Section II.
const (
	Minimal Spec = iota
	Valiant
	PB
	PAR62
	RLM
	OLM
	RLMSignOnly // ablation: RLM with the unbalanced sign-only restriction
	OFAR        // escape-ring predecessor (García et al. ICPP 2012)
)

// traits is what a mechanism is, apart from how it decides. specTraits,
// indexed by Spec, is the one place these facts are written.
type traits struct {
	name                string
	localVCs, globalVCs int
	vct                 bool // deadlock free only under virtual cut-through
	headArrival         bool // decisions consult View.HeadFullyArrived
}

var specTraits = [...]traits{
	Minimal:     {name: "Minimal", localVCs: 3, globalVCs: 2},
	Valiant:     {name: "Valiant", localVCs: 3, globalVCs: 2},
	PB:          {name: "PiggyBacking", localVCs: 3, globalVCs: 2},
	PAR62:       {name: "PAR-6/2", localVCs: 6, globalVCs: 2},
	RLM:         {name: "RLM", localVCs: 3, globalVCs: 2},
	OLM:         {name: "OLM", localVCs: 3, globalVCs: 2, vct: true},
	RLMSignOnly: {name: "RLM-signonly", localVCs: 3, globalVCs: 2},
	OFAR:        {name: "OFAR", localVCs: 3, globalVCs: 2, vct: true, headArrival: true},
}

// traits returns s's row; an unknown Spec has the zero row.
func (s Spec) traits() traits {
	if uint(s) < uint(len(specTraits)) {
		return specTraits[s]
	}
	return traits{}
}

// String returns the paper's name for the mechanism.
func (s Spec) String() string {
	if name := s.traits().name; name != "" {
		return name
	}
	return fmt.Sprintf("Spec(%d)", int(s))
}

// VCs returns the virtual-channel counts the mechanism needs on local and
// global ports: 6/2 for PAR-6/2, 3/2 for the others.
func (s Spec) VCs() (local, global int) { t := s.traits(); return t.localVCs, t.globalVCs }

// RequiresVCT reports whether the mechanism is deadlock free only under
// virtual cut-through flow control (OLM, and OFAR's escape-ring bubble).
func (s Spec) RequiresVCT() bool { return s.traits().vct }

// UsesHeadArrival reports whether the mechanism's decisions consult
// View.HeadFullyArrived (OFAR's store-and-forward escape ring), so a caller
// caching view state across retries must refresh that bit every time.
func (s Spec) UsesHeadArrival() bool { return s.traits().headArrival }

// specByName maps mechanism names back to their Spec.
var specByName = func() map[string]Spec {
	m := make(map[string]Spec, len(specTraits))
	for s, t := range specTraits {
		m[t.name] = Spec(s)
	}
	return m
}()

// ParseSpec converts a mechanism name (as printed by String, case
// sensitive) back to its Spec.
func ParseSpec(name string) (Spec, error) {
	if s, ok := specByName[name]; ok {
		return s, nil
	}
	return 0, fmt.Errorf("core: unknown mechanism %q", name)
}

// Config carries the routing parameters shared by all mechanisms.
type Config struct {
	Topo *topology.P

	// Threshold is the misrouting trigger: a non-minimal output is
	// eligible when its downstream occupancy is below Threshold times
	// the occupancy of the minimal output (paper Section III; 45% is
	// the paper's choice for RLM/VCT).
	Threshold float64

	// PBThreshold is the occupancy fraction above which Piggybacking
	// marks a channel congested.
	PBThreshold float64

	// RemoteCandidates is how many remote global channels (reached
	// through a local hop, enabling the l-l-g PAR shape) are sampled as
	// global-misrouting candidates in addition to the router's own
	// global ports. Negative disables remote sampling entirely.
	RemoteCandidates int

	// BufLocal and BufGlobal are the downstream buffer capacities, in
	// phits, behind local and global output ports. When positive, the
	// tables precompute the occupancy fractions the misrouting trigger
	// compares (see Tables.fracAt); zero leaves the trigger dividing,
	// which is what synthetic test views of unknown capacity get.
	BufLocal, BufGlobal int
}

// View is the window a routing algorithm has onto its router. All methods
// refer to output ports of the current router.
type View interface {
	// CanClaim reports whether a packet of size phits could start
	// crossing output port/vc right now (free output VC and the
	// flow-control start condition satisfied).
	CanClaim(port, vc, size int) bool
	// CanStart reports whether the downstream credits alone would allow
	// a packet of size phits to start on port/vc, ignoring whether the
	// output VC is momentarily busy with another packet. The misrouting
	// trigger is credit-based (paper Section III): a transiently busy
	// but uncongested minimal output makes the packet wait, not
	// misroute.
	CanStart(port, vc, size int) bool
	// Occupancy returns the downstream buffer occupancy, in phits, of
	// output port/vc (capacity minus credits).
	Occupancy(port, vc int) int
	// Capacity returns the downstream buffer capacity, in phits. It must
	// be constant for the lifetime of the view and identical across the
	// VCs of one port (true of any real router; the shared tables hold
	// per-port occupancy fractions for the capacities in Config).
	Capacity(port, vc int) int
	// MinState bundles the minimal-output queries of one trigger
	// evaluation — Occupancy, CanClaim and CanStart of (port, vc) — into
	// a single call, so the hot path pays one interface dispatch instead
	// of three. The three results must equal the individual queries'.
	MinState(port, vc, size int) (occ int, claim, start bool)
	// OccClaim bundles Occupancy and CanClaim for one misroute-candidate
	// eligibility check.
	OccClaim(port, vc, size int) (occ int, claim bool)
	// GlobalCongested reports the Piggybacking congestion bit of global
	// channel k of this router's group, as published last cycle.
	GlobalCongested(k int) bool
	// CurrentQueue returns occupancy and capacity, in phits, of the
	// buffer holding the packet being routed. Piggybacking uses the
	// injection backlog as its congestion signal for intra-group
	// traffic, whose bottleneck (the direct local link) never shows up
	// in downstream credits.
	CurrentQueue() (occupancy, capacity int)
	// HeadFullyArrived reports whether every phit of the packet being
	// routed is buffered at this router. OFAR's escape ring moves
	// packets store-and-forward style — the bubble argument reasons
	// about whole packets in buffers, and a strung-out packet on a ring
	// could catch its own tail.
	HeadFullyArrived() bool

	// Faulty reports whether the network has (or may develop) failed
	// links. When false the remaining fault queries always answer false
	// and algorithms skip all fault logic, keeping the fault-free hot
	// path — and its RNG draw sequence — untouched.
	Faulty() bool
	// LinkDown reports whether this router's output port drives a failed
	// link.
	LinkDown(port int) bool
	// RouteDown reports whether the single global channel from group g
	// to group tg has failed. This is link-state knowledge: real
	// deployments broadcast failed links and recompute routing tables,
	// so mechanisms may steer around failures anywhere in the machine.
	RouteDown(g, tg int) bool
	// LocalDown reports whether the local link between router indices i
	// and j of this router's group has failed.
	LocalDown(i, j int) bool
	// PortDead reports whether the far-end router of this router's
	// output port has failed entirely (a whole-router fault, not just a
	// severed cable). Link-level faults never set it; OFAR consults it
	// to shed escape-ring traffic at a dead neighbor — a ring waiting on
	// a dead router can never circulate again, so parking packets there
	// would wedge the whole escape subnetwork.
	PortDead(port int) bool
}

// Kind labels how a hop was chosen; the engine uses it for statistics and
// state commits.
type Kind uint8

// Hop kinds.
const (
	KindMin       Kind = iota // minimal (or forced) hop
	KindLocalMis              // non-minimal local hop
	KindGlobalMis             // hop committing a Valiant intermediate group
	KindEscape                // OFAR escape-ring hop under bubble flow control
)

// Decision is the outcome of one routing evaluation.
type Decision struct {
	Wait bool // nothing claimable this cycle; retry next cycle
	// Drop reports that link failures left the packet without any
	// surviving route from this router: the engine discards it and
	// accounts a fault drop instead of letting it wedge the network.
	Drop bool
	Port int // output port
	VC   int // output virtual channel
	Kind Kind

	// LocalFinal is, for KindLocalMis, the in-group router index the
	// packet is forced to visit right after the misroute hop.
	LocalFinal int
	// NewValiant is, for KindGlobalMis, the committed intermediate
	// group; -1 otherwise.
	NewValiant int
}

var (
	waitDecision = Decision{Wait: true, NewValiant: -1, LocalFinal: -1}
	dropDecision = Decision{Drop: true, NewValiant: -1, LocalFinal: -1}
)

// PacketState is the per-packet routing state threaded through the network.
type PacketState struct {
	Src, Dst  int32 // node ids
	SrcRouter int32
	DstRouter int32
	DstGroup  int32
	DstIdx    int32 // destination router's index within its group
	DstEject  int32 // ejection output port of Dst at DstRouter

	CurGroup     int32 // group of the router currently holding the head
	ValiantGroup int32 // committed intermediate group; -1 when none/done
	PendingLocal int32 // in-group router index the next hop must reach; -1
	PrevRouter   int32 // previous router id when the last hop was local; -1

	// Hop counters are int16: packets escaping onto OFAR's ring can
	// accumulate far more hops than the adaptive 8-hop budget.
	GlobalHops       int16
	LocalHops        int16
	LocalHopsInGroup int16
	LocalMisCount    int16
	GlobalMisCount   int16
	EscapeHops       int16
	LocalMisInGroup  bool
	OnEscape         bool // currently riding OFAR's escape ring
	InjDecided       bool // PB/Valiant made their injection-time choice
}

// Init fills st for a fresh packet from node src to node dst.
func (st *PacketState) Init(p *topology.P, src, dst int) {
	*st = PacketState{
		Src:          int32(src),
		Dst:          int32(dst),
		SrcRouter:    int32(p.RouterOfNode(src)),
		DstRouter:    int32(p.RouterOfNode(dst)),
		ValiantGroup: -1,
		PendingLocal: -1,
		PrevRouter:   -1,
	}
	st.DstGroup = int32(p.GroupOf(int(st.DstRouter)))
	st.DstIdx = int32(p.IndexInGroup(int(st.DstRouter)))
	st.DstEject = int32(p.EjectPortOfNode(dst))
	st.CurGroup = int32(p.GroupOf(int(st.SrcRouter)))
}

// targetGroup is the group the packet currently steers toward: the Valiant
// intermediate group while one is pending, the destination group otherwise.
func (st *PacketState) targetGroup() int {
	if st.ValiantGroup >= 0 {
		return int(st.ValiantGroup)
	}
	return int(st.DstGroup)
}

// Algorithm routes head packets at one router; what it needs of the engine
// is on its Spec (VCs, RequiresVCT, UsesHeadArrival).
type Algorithm interface {
	// Route evaluates the head packet of size phits sitting at router.
	// It may be called repeatedly (every cycle) until the returned
	// decision is claimed; it must not mutate st in ways that are not
	// idempotent, except for the injection-time choices guarded by
	// st.InjDecided. Every implementation is BuildPlan followed by
	// RoutePlanned over a throwaway plan; callers that re-evaluate the
	// same head every cycle (the engine) keep the plan and replay it.
	Route(v View, st *PacketState, router, size int, r *rng.PCG) Decision
	// BuildPlan computes the static geometry of the head's decision into
	// p: minimal output, misroute arming, candidate lists with the pair
	// restriction and the current fault view applied, and the
	// injection-time choices (which may draw from r). Valid until the
	// head changes or the fault view is recomputed.
	BuildPlan(v View, st *PacketState, router, size int, r *rng.PCG, p *Plan)
	// RoutePlanned replays a built plan against the current cycle's
	// dynamic state: claimability, the credit-based misrouting trigger
	// and the random candidate draws. It never reads the PacketState.
	RoutePlanned(v View, p *Plan, size int, r *rng.PCG) Decision
}

// New creates an instance of the requested mechanism with its own private
// table set. Callers instantiating many routers should build
// the tables once with NewTables and derive instances via
// Tables.NewAlgorithm instead (the engine does).
func New(spec Spec, cfg Config) (Algorithm, error) {
	t, err := NewTables(spec, cfg)
	if err != nil {
		return nil, err
	}
	return t.NewAlgorithm(), nil
}

// CommitHop updates the packet state when the engine claims decision dec at
// router. It must be called exactly once per claimed hop.
func CommitHop(p *topology.P, st *PacketState, router int, dec Decision) {
	g := p.GroupOf(router)
	st.OnEscape = dec.Kind == KindEscape
	if dec.Kind == KindEscape {
		st.EscapeHops++
	}
	switch {
	case p.IsLocalPort(dec.Port):
		to := p.LocalPortTarget(p.IndexInGroup(router), dec.Port)
		st.LocalHops++
		st.LocalHopsInGroup++
		st.PrevRouter = int32(router)
		if st.PendingLocal >= 0 && int(st.PendingLocal) == to {
			st.PendingLocal = -1
		}
		switch dec.Kind {
		case KindLocalMis:
			st.LocalMisCount++
			st.LocalMisInGroup = true
			st.PendingLocal = int32(dec.LocalFinal)
		case KindGlobalMis:
			// Redirect toward a remote channel: commit the
			// intermediate group; the hop itself is local.
			st.ValiantGroup = int32(dec.NewValiant)
			st.GlobalMisCount++
		}
	case p.IsGlobalPort(dec.Port):
		k := p.GlobalChannelOfPort(p.IndexInGroup(router), dec.Port)
		tg := p.TargetGroup(g, k)
		st.GlobalHops++
		st.CurGroup = int32(tg)
		st.LocalHopsInGroup = 0
		st.LocalMisInGroup = false
		st.PrevRouter = -1
		st.PendingLocal = -1
		if dec.Kind == KindGlobalMis {
			st.ValiantGroup = int32(dec.NewValiant)
			st.GlobalMisCount++
		}
		if st.ValiantGroup == int32(tg) {
			st.ValiantGroup = -1 // Valiant phase complete
		}
	default:
		panic(fmt.Sprintf("core: CommitHop on non-link port %d", dec.Port))
	}
}

// minimalNext computes the minimal next hop of st at router: the output
// port, whether it is a global hop, and — for local hops — the in-group
// exit router index the hop heads to. It recomputes from topology
// arithmetic every call; the hot paths use the precomputed
// Tables.minimalHop instead, and TestMinimalHopMatchesRecompute pins the two
// to each other.
func minimalNext(p *topology.P, st *PacketState, router int) (port int, global bool, exitIdx int) {
	idx := p.IndexInGroup(router)
	g := p.GroupOf(router)
	tg := st.targetGroup()
	if g == tg {
		// Same group as the steering target. A pending Valiant group
		// is cleared on arrival, so tg is the destination group here.
		exitIdx = p.IndexInGroup(int(st.DstRouter))
		return p.LocalPort(idx, exitIdx), false, exitIdx
	}
	k := p.ChannelToGroup(g, tg)
	owner, gport := p.GlobalPortOfChannel(k)
	if owner == idx {
		return gport, true, -1
	}
	return p.LocalPort(idx, owner), false, owner
}
