package topology

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestNewSchedule pins what a Schedule is made of: its events in
// CompareEvents order with everything at or before cycle 0 folded into the
// boot state, RouterFaults exactly when a router is dead at boot or dies
// later, and the rejections — events naming no router or link, a boot state
// or cycle-boundary state that partitions the network.
func TestNewSchedule(t *testing.T) {
	p := MustNew(2) // 9 groups of 4 routers; ports 0-2 local, 3-4 global, 5-6 ejection
	gp := p.GlobalPortBase()

	t.Run("order and boot fold", func(t *testing.T) {
		boot := NewFaultSet(p)
		boot.SetLink(1, 0, true)
		bootKey := boot.StateKey()
		in := []Event{
			{At: 700, Repair: true, Router: 4, Port: 1},
			{At: 0, Router: 3, Port: 2},
			{At: 300, Router: 6, Port: gp},
			{At: 700, Router: 4, Port: 1},
			{At: 300, Router: 2, Port: WholeRouter},
			{At: 0, Router: 9, Port: gp},
		}
		given := slices.Clone(in)
		s, err := NewSchedule(boot, in)
		if err != nil {
			t.Fatal(err)
		}
		want := []Event{
			{At: 300, Router: 2, Port: WholeRouter},
			{At: 300, Router: 6, Port: gp},
			{At: 700, Router: 4, Port: 1},
			{At: 700, Repair: true, Router: 4, Port: 1},
		}
		if !reflect.DeepEqual(s.Events, want) {
			t.Fatalf("events after the fold, in order:\n got %+v\nwant %+v", s.Events, want)
		}
		if !slices.IsSortedFunc(s.Events, CompareEvents) {
			t.Fatal("events not in CompareEvents order")
		}
		folded := NewFaultSet(p)
		folded.SetLink(1, 0, true)
		folded.SetLink(3, 2, true)
		folded.SetLink(9, gp, true)
		if s.Boot.StateKey() != folded.StateKey() {
			t.Fatal("the cycle-0 events were not folded into Boot")
		}
		if boot.StateKey() != bootKey || !reflect.DeepEqual(in, given) {
			t.Fatal("NewSchedule modified its inputs")
		}
		if !s.RouterFaults {
			t.Fatal("a later whole-router event did not set RouterFaults")
		}
	})

	t.Run("RouterFaults", func(t *testing.T) {
		for _, tc := range []struct {
			name   string
			boot   func(f *FaultSet)
			events []Event
			want   bool
		}{
			{"pristine", func(*FaultSet) {}, nil, false},
			{"links only", func(f *FaultSet) { f.SetLink(0, 0, true) },
				[]Event{{At: 10, Router: 5, Port: gp}, {At: 20, Repair: true, Router: 5, Port: gp}}, false},
			{"router dead at boot", func(f *FaultSet) { f.SetRouter(7, true) }, nil, true},
			{"router killed at cycle 0", func(*FaultSet) {}, []Event{{At: 0, Router: 7, Port: WholeRouter}}, true},
			{"router killed mid-run", func(*FaultSet) {}, []Event{{At: 50, Router: 7, Port: WholeRouter}}, true},
			{"router dead and revived at boot", func(*FaultSet) {},
				[]Event{{At: 0, Router: 7, Port: WholeRouter}, {At: 0, Repair: true, Router: 7, Port: WholeRouter}}, false},
		} {
			boot := NewFaultSet(p)
			tc.boot(boot)
			s, err := NewSchedule(boot, tc.events)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if s.RouterFaults != tc.want {
				t.Errorf("%s: RouterFaults %v, want %v", tc.name, s.RouterFaults, tc.want)
			}
		}
	})

	t.Run("bad events", func(t *testing.T) {
		for _, ev := range []Event{
			{At: 10, Router: p.Routers, Port: 0},
			{At: 10, Router: -1, Port: 0},
			{At: 10, Router: 0, Port: p.EjectPortBase()},
			{At: 10, Router: 0, Port: p.Ports},
			{At: 10, Router: 0, Port: -2},
		} {
			if _, err := NewSchedule(NewFaultSet(p), []Event{{At: 5, Router: 1, Port: 0}, ev}); err == nil {
				t.Errorf("event %+v accepted", ev)
			} else if !strings.Contains(err.Error(), "fault event 1") {
				t.Errorf("event %+v: error %q does not name event 1", ev, err)
			}
		}
	})

	// isolate lists the events that cut every link of router r at cycle at.
	isolate := func(r int, at int64) []Event {
		var evs []Event
		for port := 0; port < p.EjectPortBase(); port++ {
			evs = append(evs, Event{At: at, Router: r, Port: port})
		}
		return evs
	}

	t.Run("partitions", func(t *testing.T) {
		boot := NewFaultSet(p)
		for _, ev := range isolate(0, 0) {
			boot.Apply(ev.Router, ev.Port, true)
		}
		// The witness is the BFS root and the first live router it misses.
		_, err := NewSchedule(boot, nil)
		if err == nil || !strings.Contains(err.Error(), "fault set would partition the network: router 0 cannot reach router 1") {
			t.Errorf("partitioned boot state: %v", err)
		}

		_, err = NewSchedule(NewFaultSet(p), isolate(5, 400))
		if err == nil || !strings.Contains(err.Error(), "fault events partition the network: router 0 cannot reach router 5") ||
			!strings.HasSuffix(err.Error(), "at cycle 400") {
			t.Errorf("partitioning event batch: %v", err)
		}

		dead := NewFaultSet(p)
		for r := 0; r < p.Routers; r++ {
			dead.SetRouter(r, true)
		}
		if _, err := NewSchedule(dead, nil); err == nil || !strings.Contains(err.Error(), "fail every router") {
			t.Errorf("every router dead: %v", err)
		}
	})

	t.Run("same-cycle reconnect", func(t *testing.T) {
		// Only the state at each cycle boundary must stay connected:
		// isolating router 5 and reconnecting it in the same cycle is legal.
		evs := append(isolate(5, 400), Event{At: 400, Repair: true, Router: 5, Port: 0})
		s, err := NewSchedule(NewFaultSet(p), evs)
		if err != nil {
			t.Fatalf("same-cycle kill+repair with a connected end state rejected: %v", err)
		}
		if len(s.Events) != len(evs) {
			t.Fatalf("%d events kept of %d", len(s.Events), len(evs))
		}
	})
}
