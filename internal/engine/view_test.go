package engine

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/topology"
)

// viewEvents is a schedule with every kind of event the serial section
// sees: two folded at boot, a link killed and then repaired under a router
// that died in between, that router's outage, a same-cycle burst, and four
// flap periods on a global channel.
func viewEvents(p *topology.P) []topology.Event {
	gp := p.GlobalPortBase()
	evs := []topology.Event{
		{At: 0, Router: 3, Port: 1},
		{At: 0, Router: 9, Port: topology.WholeRouter},
		{At: 40, Router: 7, Port: 0},
		{At: 100, Router: 7, Port: topology.WholeRouter},
		{At: 150, Router: 12, Port: gp},
		{At: 150, Router: 20, Port: 2},
		{At: 200, Repair: true, Router: 7, Port: 0},
		{At: 260, Repair: true, Router: 7, Port: topology.WholeRouter},
		{At: 300, Repair: true, Router: 9, Port: topology.WholeRouter},
	}
	for k := int64(0); k < 4; k++ {
		evs = append(evs,
			topology.Event{At: 320 + 40*k, Router: 2, Port: gp},
			topology.Event{At: 335 + 40*k, Repair: true, Router: 2, Port: gp})
	}
	return evs
}

// TestRoutingViewIsEventsStaleCyclesAgo pins what the two fault sets are,
// cycle by cycle: the physical set is the boot set plus every event with
// At <= cycle, the routing view the boot set plus every event with
// At+StaleCycles <= cycle, both replayed here from scratch; they are one
// object exactly when the view cannot lag; no VC buffer keeps a cached
// plan past a serial section in which the view absorbed anything; and
// every router's flow-control mirror (deadPorts, parked) follows the
// physical set.
func TestRoutingViewIsEventsStaleCyclesAgo(t *testing.T) {
	for _, tc := range []struct {
		stale    int64
		bootOnly bool // keep only the events folded at boot
	}{{0, false}, {1, false}, {70, false}, {70, true}} {
		t.Run(fmt.Sprintf("stale=%d/bootOnly=%v", tc.stale, tc.bootOnly), func(t *testing.T) {
			cfg := testConfig(t, 2, core.OLM, 0.2)
			p := cfg.Topo
			boot := topology.NewFaultSet(p)
			if err := topology.RandomFaults(boot, 0.1, 0.05, 5); err != nil {
				t.Fatal(err)
			}
			events := viewEvents(p)
			if tc.bootOnly {
				events = events[:2]
			}
			cfg.Faults = schedule(t, p, boot, events...)
			cfg.StaleCycles = tc.stale
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if same, want := s.view == s.faults, tc.stale == 0 || tc.bootOnly; same != want {
				t.Fatalf("view == faults is %v, want %v", same, want)
			}

			// replay is the definition: the configured set, then in order
			// every event already due at boot or whose horizon has passed.
			replay := func(lag, cycle int64) string {
				f := boot.Clone()
				for _, ev := range events {
					if ev.At > 0 && ev.At+lag > cycle {
						continue
					}
					if ev.Port == topology.WholeRouter {
						f.SetRouter(ev.Router, !ev.Repair)
					} else {
						f.SetLink(ev.Router, ev.Port, !ev.Repair)
					}
				}
				return f.StateKey()
			}
			// planned counts the VC buffers whose cached plan is current.
			planned := func() (n int) {
				for id := range s.routers {
					for _, buf := range s.routers[id].vcs {
						if buf.planned {
							n++
						}
					}
				}
				return n
			}
			sawPlans := false
			for {
				c := s.cycle
				if got := s.faults.StateKey(); got != replay(0, c) {
					t.Fatalf("cycle %d: physical set is not the events with At <= cycle", c)
				}
				if got := s.view.StateKey(); got != replay(tc.stale, c) {
					t.Fatalf("cycle %d: routing view is not the events with At+%d <= cycle", c, tc.stale)
				}
				absorbed := false
				for _, ev := range events {
					absorbed = absorbed || ev.At > 0 && ev.At+tc.stale == c
				}
				if n := planned(); absorbed && n != 0 {
					t.Fatalf("cycle %d: the view absorbed events but %d VC buffers keep their plan", c, n)
				} else if n > 0 {
					sawPlans = true
				}
				for id := range s.routers {
					r := &s.routers[id]
					if r.deadPorts != s.faults.PortMask(id) || r.parked != s.faults.RouterDown(id) {
						t.Fatalf("cycle %d: router %d mirrors deadPorts %#x parked %v, set says %#x / %v",
							c, id, r.deadPorts, r.parked, s.faults.PortMask(id), s.faults.RouterDown(id))
					}
				}
				if c == 600 {
					break
				}
				s.stepBlock(1)
			}
			if !sawPlans {
				t.Fatal("no VC buffer ever held a plan: the absorb check tested nothing")
			}
			if !tc.bootOnly && s.pendingFaultEvents() {
				t.Fatal("events left unapplied after the last horizon")
			}
		})
	}
}

// TestMinStateTruthTable states once what the router's one credit query
// answers. For a link output: occupancy is capacity minus credits; start
// needs a live port and claimNeed credits (the whole packet under VCT, one
// phit under wormhole); claim needs start and a free VC. Ejection ports and
// the drop sink have no downstream buffer: occupancy 0, infinite credits.
func TestMinStateTruthTable(t *testing.T) {
	// A dead port refuses both answers and a busy VC only the claim;
	// credits one below the need refuse both on a link and nothing at an
	// ejection port or the sink.
	rows := []struct {
		dead, busy, short      bool
		linkClaim, linkStart   bool
		otherClaim, otherStart bool
	}{
		{false, false, false, true, true, true, true},
		{false, false, true, false, false, true, true},
		{false, true, false, false, true, false, true},
		{false, true, true, false, false, false, true},
		{true, false, false, false, false, false, false},
		{true, false, true, false, false, false, false},
		{true, true, false, false, false, false, false},
		{true, true, true, false, false, false, false},
	}
	for _, flow := range []FlowControl{VCT, WH} {
		cfg := testConfig(t, 2, core.Minimal, 0)
		cfg.Flow = flow
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := sim.topo
		size := cfg.PacketPhits
		need := map[FlowControl]int{VCT: size, WH: 1}[flow]
		for _, out := range []struct {
			name string
			port int
			link bool
		}{{"link", 0, true}, {"eject", p.EjectPortBase(), false}, {"sink", p.Ports, false}} {
			for _, row := range rows {
				r := &sim.routers[0]
				r.reset(flow, 1)
				vc := 0
				op := &r.out[out.port]
				credits := need
				if row.short {
					credits--
				}
				if out.link {
					vc = 1
					r.outCredits(out.port)[vc] = int32(credits)
				}
				if row.dead {
					r.deadPorts |= 1 << uint(out.port)
				}
				if row.busy {
					op.activeVCs |= 1 << uint(vc)
				}
				wantOcc, wantClaim, wantStart := 0, row.otherClaim, row.otherStart
				if out.link {
					wantOcc, wantClaim, wantStart = int(op.capacity)-credits, row.linkClaim, row.linkStart
				}
				occ, claim, start := r.MinState(out.port, vc, size)
				if occ != wantOcc || claim != wantClaim || start != wantStart {
					t.Errorf("%v %s dead=%v busy=%v short=%v: MinState = (%d, %v, %v), want (%d, %v, %v)",
						flow, out.name, row.dead, row.busy, row.short, occ, claim, start, wantOcc, wantClaim, wantStart)
				}
			}
		}
	}
}
