package topology

import (
	"cmp"
	"fmt"
	"slices"
)

// Event is one scheduled fault state change: the full-duplex link on
// (Router, Port) fails (or, with Repair, comes back) at the start of cycle
// At. Port WholeRouter fails or revives the whole router instead.
type Event struct {
	At     int64
	Repair bool
	Router int
	Port   int
}

// CompareEvents is the order a Schedule holds its events in: by cycle, then
// router, then port (WholeRouter, -1, sorts first), a kill before a repair
// of the same link in the same cycle.
func CompareEvents(a, b Event) int {
	killFirst := 0
	if a.Repair != b.Repair {
		killFirst = -1
		if a.Repair {
			killFirst = 1
		}
	}
	return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Router, b.Router), cmp.Compare(a.Port, b.Port), killFirst)
}

// Schedule is a checked fault timeline: the state a run boots in and the
// changes it goes through, every state on the way connected. The engine
// consumes it as it is.
type Schedule struct {
	// Boot is the state at cycle 0, every event at or before cycle 0
	// folded in.
	Boot *FaultSet
	// Events are the changes after cycle 0, in CompareEvents order.
	Events []Event
	// RouterFaults reports whether a whole router is dead at boot or fails
	// later in the run.
	RouterFaults bool
}

// NewSchedule checks events against boot's topology, orders a copy of them,
// and rejects the timeline when the boot state, or the state after the last
// event of any cycle, leaves two live routers unable to reach each other:
// the engine applies every event due at one cycle before any routing runs,
// so only the states at cycle boundaries must stay connected. boot is not
// modified.
func NewSchedule(boot *FaultSet, events []Event) (*Schedule, error) {
	p := boot.Topology()
	for i, ev := range events {
		if ev.Router < 0 || ev.Router >= p.Routers {
			return nil, fmt.Errorf("topology: fault event %d names no router (router %d)", i, ev.Router)
		}
		if ev.Port != WholeRouter && !(p.IsLocalPort(ev.Port) || p.IsGlobalPort(ev.Port)) {
			return nil, fmt.Errorf("topology: fault event %d names no link (router %d port %d)", i, ev.Router, ev.Port)
		}
	}
	evs := slices.Clone(events)
	slices.SortFunc(evs, CompareEvents)
	if a, b, part := boot.Partition(); part {
		return nil, partitionError(boot, a, b, "fault set would")
	}
	probe := boot.Clone()
	// Identical intermediate states share one connectivity probe: a flap
	// schedule alternates between a handful of states, so the validation
	// work stays O(distinct states), not O(events).
	checked := map[string]bool{probe.StateKey(): true}
	for i, ev := range evs {
		probe.Apply(ev.Router, ev.Port, !ev.Repair)
		if i+1 < len(evs) && evs[i+1].At == ev.At {
			continue
		}
		if key := probe.StateKey(); !checked[key] {
			checked[key] = true
			if a, b, part := probe.Partition(); part {
				return nil, fmt.Errorf("%w at cycle %d", partitionError(probe, a, b, "fault events"), ev.At)
			}
		}
	}
	s := &Schedule{Boot: boot.Clone()}
	n := 0
	for ; n < len(evs) && evs[n].At <= 0; n++ {
		s.Boot.Apply(evs[n].Router, evs[n].Port, !evs[n].Repair)
	}
	s.Events = evs[n:]
	s.RouterFaults = s.Boot.DownRouters() > 0 ||
		slices.ContainsFunc(s.Events, func(ev Event) bool { return ev.Port == WholeRouter })
	return s, nil
}

// partitionError renders the witness of a failed connectivity probe: the
// first unreachable live router pair, or the everything-failed case.
func partitionError(set *FaultSet, a, b int, when string) error {
	if a < 0 {
		return fmt.Errorf("topology: %s fail every router", when)
	}
	return fmt.Errorf("topology: %s partition the network: router %d cannot reach router %d (%d global, %d local links down, %d routers failed)",
		when, a, b, set.DownGlobal(), set.DownLocal(), set.DownRouters())
}
