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

	// localCands[idx*rpg+exit] lists the intermediate routers k (ascending)
	// of the 2-hop detours idx -> k -> exit that pass the mechanism's pair
	// restriction, with k != idx and k != exit. For unrestricted mechanisms
	// the lists simply enumerate every other router of the group.
	localCands [][]localCand

	// pairOK, flattened [rpg][rpg][rpg], answers AllowedHops(i, k, j) by
	// lookup; nil for mechanisms without a pair restriction (always true).
	pairOK []bool

	// fracs[port][occ] is float64(occ)/float64(capacity) for every legal
	// occupancy of the buffer behind output port (Config.BufLocal or
	// BufGlobal by port class; ports of equal capacity share one row).
	// The values are computed by the exact division they replace, so the
	// trigger's lookups are bit-identical to dividing. Nil rows — ejection
	// ports, or a Config without capacities — fall back to the division.
	fracs [][]float64
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
	t.localCands = make([][]localCand, rpg*rpg)
	for idx := 0; idx < rpg; idx++ {
		for exit := 0; exit < rpg; exit++ {
			if idx == exit {
				continue // a packet is never steered toward itself
			}
			var list []localCand
			for k := 0; k < rpg; k++ {
				if k == idx || k == exit {
					continue
				}
				if pair != nil && !pair.AllowedHops(idx, k, exit) {
					continue
				}
				list = append(list, localCand{
					k:    int16(k),
					port: int16(t.rt.LocalPortTo(idx, k)),
				})
			}
			t.localCands[idx*rpg+exit] = list
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
		row := func(c int) []float64 {
			if c <= 0 {
				return nil
			}
			r := make([]float64, c+1)
			for o := 1; o <= c; o++ {
				r[o] = float64(o) / float64(c)
			}
			return r
		}
		local := row(cfg.BufLocal)
		global := local
		if cfg.BufGlobal != cfg.BufLocal {
			global = row(cfg.BufGlobal)
		}
		t.fracs = make([][]float64, p.Ports)
		for port := 0; port < p.EjectPortBase(); port++ {
			t.fracs[port] = local
			if p.IsGlobalPort(port) {
				t.fracs[port] = global
			}
		}
	}
	return t, nil
}

// fracAt returns occ normalized to the capacity of output (port, vc): one
// indexed load from the shared table when the tables were built with the
// buffer capacities, the recomputing division otherwise (synthetic views,
// out-of-range occupancies). Read-only: the routing path writes nothing.
func (t *Tables) fracAt(v View, port, vc, occ int) float64 {
	if port < len(t.fracs) {
		if row := t.fracs[port]; uint(occ) < uint(len(row)) {
			return row[occ]
		}
	}
	if c := v.Capacity(port, vc); c > 0 {
		return float64(occ) / float64(c)
	}
	return 0
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
// shared tables. One instance is created per router so implementations may
// keep scratch state without locking; the tables themselves are shared.
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
