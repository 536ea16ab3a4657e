// tables.go is the mechanism-level routing-table layer on top of
// topology.RouteTable: one Tables instance per (topology, mechanism,
// parameters) triple holds everything the per-packet decision paths look
// up instead of recomputing — the minimal next-hop rows, the global-port
// matrix, and the mechanism's local-misroute candidate lists with the
// pair restriction (RLM's parity-sign rule, the sign-only ablation)
// already applied. The lists preserve the ascending-k order of the scan
// they replace, so table-driven decisions are bit-identical to the
// recomputing implementation (see TestPlanRouteEquivalence).
//
// A Tables value is immutable after NewTables and is shared read-only by
// every router's Algorithm instance of a simulation.
package core

import (
	"fmt"

	"repro/internal/topology"
)

// localCand is one precomputed local-misroute detour: the intermediate
// in-group router index and the output port reaching it.
type localCand struct {
	k    int16
	port int16
}

// Tables holds the shared precomputed routing tables of one mechanism
// instantiation.
type Tables struct {
	spec Spec
	cfg  Config // defaults filled
	rt   *topology.RouteTable

	// Cached topology scalars for the hot paths.
	groups int
	rpg    int
	h      int
	gpb    int // GlobalPortBase

	// Row idx*rpg+exit of localCands, localCands[localOff[row]:
	// localOff[row+1]], lists the intermediate routers k (ascending) of the
	// 2-hop detours idx -> k -> exit that pass the mechanism's pair
	// restriction, with k != idx and k != exit. For unrestricted mechanisms
	// the rows simply enumerate every other router of the group. All rows
	// share one array, so a plan names its row by index.
	localCands []localCand
	localOff   []int32

	// pairOK, flattened [rpg][rpg][rpg], answers AllowedHops(i, k, j) by
	// lookup; nil for mechanisms without a pair restriction (always true).
	pairOK []bool

	// caps[port] is the capacity of the buffer behind output port
	// (Config.BufLocal or BufGlobal by port class), zero for ejection
	// ports; nil for a Config without capacities.
	caps []int
}

// NewTables validates cfg, fills its defaults, and computes the table set
// for the given mechanism. The engine builds one Tables per simulation and
// derives every router's Algorithm from it via NewAlgorithm.
func NewTables(spec Spec, cfg Config) (*Tables, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 0.45
	}
	if cfg.PBThreshold <= 0 {
		cfg.PBThreshold = 0.35
	}
	if cfg.RemoteCandidates < 0 {
		cfg.RemoteCandidates = 0
	}
	var pair restrictedPairChecker
	switch spec {
	case Minimal, Valiant, PB, PAR62, OLM, OFAR:
	case RLM:
		pair = NewParityTable()
	case RLMSignOnly:
		pair = NewSignOnlyTable()
	default:
		return nil, fmt.Errorf("core: unknown spec %d", spec)
	}
	p := cfg.Topo
	if p.H > 16 {
		// A Plan holds its candidates as 32-bit masks: h own global ports
		// and up to 2h-2 local detours per row.
		return nil, fmt.Errorf("core: h=%d exceeds the plan's 16-port candidate masks", p.H)
	}
	t := &Tables{
		spec:   spec,
		cfg:    cfg,
		rt:     topology.NewRouteTable(p),
		groups: p.Groups,
		rpg:    p.RoutersPerGroup,
		h:      p.H,
		gpb:    p.GlobalPortBase(),
	}
	rpg := t.rpg
	t.localCands = make([]localCand, 0, rpg*rpg*max(rpg-2, 0))
	t.localOff = make([]int32, rpg*rpg+1)
	for idx := 0; idx < rpg; idx++ {
		for exit := 0; exit < rpg; exit++ {
			// idx == exit keeps an empty row: a packet is never steered
			// toward itself.
			for k := 0; k < rpg && idx != exit; k++ {
				if k == idx || k == exit {
					continue
				}
				if pair != nil && !pair.AllowedHops(idx, k, exit) {
					continue
				}
				t.localCands = append(t.localCands, localCand{
					k:    int16(k),
					port: int16(t.rt.LocalPortTo(idx, k)),
				})
			}
			t.localOff[idx*rpg+exit+1] = int32(len(t.localCands))
		}
	}
	if pair != nil {
		t.pairOK = make([]bool, rpg*rpg*rpg)
		for i := 0; i < rpg; i++ {
			for k := 0; k < rpg; k++ {
				if k == i {
					continue
				}
				for j := 0; j < rpg; j++ {
					if j == k {
						continue
					}
					t.pairOK[(i*rpg+k)*rpg+j] = pair.AllowedHops(i, k, j)
				}
			}
		}
	}
	if cfg.BufLocal > 0 || cfg.BufGlobal > 0 {
		t.caps = make([]int, p.EjectPortBase())
		for port := range t.caps {
			t.caps[port] = cfg.BufLocal
			if p.IsGlobalPort(port) {
				t.caps[port] = cfg.BufGlobal
			}
		}
	}
	return t, nil
}

// fracAt returns occ normalized to the capacity of output (port, vc):
// divided by the capacity the tables were built with, or by the view's
// (synthetic views, out-of-range occupancies). Read-only: the routing
// path writes nothing.
func (t *Tables) fracAt(v View, port, vc, occ int) float64 {
	if port < len(t.caps) {
		if c := t.caps[port]; c > 0 && uint(occ) <= uint(c) {
			return float64(occ) / float64(c)
		}
	}
	if c := v.Capacity(port, vc); c > 0 {
		return float64(occ) / float64(c)
	}
	return 0
}

// ownTarget returns the group reached by global port j of router index idx
// in group g: the channel sits at cyclic offset idx*h + j + 1.
func (t *Tables) ownTarget(g, idx, j int) int {
	tg := g + idx*t.h + j + 1
	if tg >= t.groups {
		tg -= t.groups
	}
	return tg
}

// localRow returns detour row idx*rpg+exit (see localCands).
func (t *Tables) localRow(row int) []localCand {
	return t.localCands[t.localOff[row]:t.localOff[row+1]]
}

// pairAllowed answers AllowedHops(i, k, j) by table lookup; mechanisms
// without a pair restriction always allow.
func (t *Tables) pairAllowed(i, k, j int) bool {
	if t.pairOK == nil {
		return true
	}
	return t.pairOK[(i*t.rpg+k)*t.rpg+j]
}

// NewAlgorithm creates a router-agnostic Algorithm instance backed by the
// shared tables. An instance serves one goroutine (the engine makes one per
// worker), so implementations may keep scratch state without locking; the
// tables themselves are shared.
func (t *Tables) NewAlgorithm() Algorithm {
	switch t.spec {
	case Minimal, Valiant, PB:
		return &oblivious{cfg: t.cfg, spec: t.spec, tab: t}
	case PAR62, RLM, RLMSignOnly, OLM:
		return newAdaptive(t.spec, t)
	case OFAR:
		return newOFAR(t)
	}
	panic(fmt.Sprintf("core: Tables with unknown spec %d", t.spec))
}

// minimalHop is the table-driven minimalNext: the minimal next hop of st
// at the router with in-group index idx of group g.
func (t *Tables) minimalHop(st *PacketState, idx, g int) (port int, global bool, exitIdx int) {
	tg := int(st.DstGroup)
	if st.ValiantGroup >= 0 {
		tg = int(st.ValiantGroup)
	}
	if g == tg {
		// Same group as the steering target. A pending Valiant group is
		// cleared on arrival, so tg is the destination group here.
		exitIdx = int(st.DstIdx)
		return t.rt.LocalPortTo(idx, exitIdx), false, exitIdx
	}
	e := t.rt.MinHopTo(idx, t.rt.GroupOffset(g, tg))
	return int(e.Port), e.Global, int(e.Exit)
}
