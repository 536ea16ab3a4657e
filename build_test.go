package dragonfly

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topology"
)

// sameEngineConfig fails unless two engine configurations run identically:
// equal scalar fields, equal topologies and workloads, and fault schedules
// with the same boot state, events and router-fault flag.
func sameEngineConfig(t *testing.T, what string, a, b engine.Config) {
	t.Helper()
	if *a.Topo != *b.Topo || !reflect.DeepEqual(a.Workload, b.Workload) {
		t.Errorf("%s: topology or workload differs", what)
	}
	if (a.Faults == nil) != (b.Faults == nil) {
		t.Fatalf("%s: one has a fault schedule, the other none", what)
	}
	if a.Faults != nil && (a.Faults.Boot.StateKey() != b.Faults.Boot.StateKey() ||
		!reflect.DeepEqual(a.Faults.Events, b.Faults.Events) || a.Faults.RouterFaults != b.Faults.RouterFaults) {
		t.Errorf("%s: fault schedules differ:\n  %+v\n  %+v", what, a.Faults.Events, b.Faults.Events)
	}
	a.Topo, a.Workload, a.Faults = nil, nil, nil
	b.Topo, b.Workload, b.Faults = nil, nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: engine configs differ:\n  %+v\n  %+v", what, a, b)
	}
}

// TestBuildRunsCanonicalConfig: the engine runs exactly the configuration
// the cache key hashes. Every spelling of one experiment builds an engine
// config whose sizing, routing and cycle fields are Canonical()'s, and the
// spellings build identical engine configs.
func TestBuildRunsCanonicalConfig(t *testing.T) {
	p := topology.MustNew(2)
	far := func(l LinkID) LinkID {
		r, port := p.LinkTarget(l.Router, l.Port)
		return LinkID{Router: r, Port: port}
	}
	la, lb, lc := LinkID{Router: 0, Port: 0}, LinkID{Router: 5, Port: 3}, LinkID{Router: 2, Port: 4}
	kill := func(at int64, l LinkID) FaultEvent { return FaultEvent{At: at, Link: l} }
	repair := func(at int64, l LinkID) FaultEvent { return FaultEvent{At: at, Repair: true, Link: l} }
	flap := FlapSpec{Link: LinkID{Router: 8, Port: 4}, At: 100, Period: 300, Down: 60, Count: 3}
	faulted := func(f FaultSpec) Config {
		return Config{H: 2, Mechanism: OLM, Load: 0.3, StaleCycles: 100, Warmup: 200, Measure: 600, Workers: 2, Faults: &f}
	}

	groups := map[string][]Config{
		"defaults": {
			{Load: 0.3},
			{H: 4, PacketPhits: 8, Threshold: 0.45, PBThreshold: 0.35, RemoteCandidates: 2,
				BufLocal: 32, BufGlobal: 256, InjQueuePackets: 16, LatLocal: 10, LatGlobal: 100,
				Load: 0.3, Warmup: 3000, Measure: 6000, Watchdog: 20000, MaxCycles: 50 * (3000 + 6000 + 20000)},
			{Phases: []PhaseSpec{{Load: 0.3}}},
		},
		"faults": {
			faulted(FaultSpec{
				Links:   []LinkID{la, lb},
				Events:  []FaultEvent{kill(300, lc), kill(700, la), repair(900, lc)},
				Routers: []RouterFault{{Router: 9, At: 500, Until: 800}, {Router: 20}},
				Flaps:   []FlapSpec{flap},
			}),
			faulted(FaultSpec{
				Links:   []LinkID{far(lb), la, far(la), lb},
				Events:  []FaultEvent{repair(900, far(lc)), kill(700, far(la)), kill(300, lc)},
				Routers: []RouterFault{{Router: 20}, {Router: 9, At: 500, Until: 800}, {Router: 20}},
				Flaps:   []FlapSpec{flap, flap},
			}),
		},
	}
	for name, spellings := range groups {
		var first engine.Config
		for i, c := range spellings {
			ec, err := c.build()
			if err != nil {
				t.Fatalf("%s spelling %d: %v", name, i, err)
			}
			canon := c.Canonical()
			want := engine.Config{
				Routing:     core.Config{Threshold: canon.Threshold, PBThreshold: canon.PBThreshold, RemoteCandidates: canon.RemoteCandidates},
				PacketPhits: canon.PacketPhits, BufLocal: canon.BufLocal, BufGlobal: canon.BufGlobal,
				InjQueuePackets: canon.InjQueuePackets, LatLocal: canon.LatLocal, LatGlobal: canon.LatGlobal,
				Warmup: canon.Warmup, Measure: canon.Measure, MaxCycles: canon.MaxCycles, Watchdog: canon.Watchdog,
				WindowCycles: canon.WindowCycles, StaleCycles: canon.StaleCycles, Workers: c.Workers,
			}
			got := engine.Config{
				Routing:     ec.Routing,
				PacketPhits: ec.PacketPhits, BufLocal: ec.BufLocal, BufGlobal: ec.BufGlobal,
				InjQueuePackets: ec.InjQueuePackets, LatLocal: ec.LatLocal, LatGlobal: ec.LatGlobal,
				Warmup: ec.Warmup, Measure: ec.Measure, MaxCycles: ec.MaxCycles, Watchdog: ec.Watchdog,
				WindowCycles: ec.WindowCycles, StaleCycles: ec.StaleCycles, Workers: ec.Workers,
			}
			if got != want {
				t.Errorf("%s spelling %d: build runs\n  %+v\nbut Canonical() is\n  %+v", name, i, got, want)
			}
			if i == 0 {
				first = ec
				continue
			}
			sameEngineConfig(t, name, first, ec)
		}
	}
}

// FuzzConfigJSON decodes arbitrary JSON into a Config — the shape every
// campaign submission arrives in — and checks the properties build relies
// on: Validate never panics; for a valid config Canonical is a fixed point
// whose result validates; build, which simulates the canonical form, does
// not panic; and at h ≤ 2, cut to at most 300 steady and 2,000 burst
// cycles, the config runs without panicking — whatever Validate admits, a
// worker must survive.
func FuzzConfigJSON(f *testing.F) {
	link := LinkID{Router: 1, Port: 3}
	for _, c := range []Config{
		{H: 2, Mechanism: RLM, Traffic: Traffic{Kind: ADVG, Offset: 2}, Load: 0.4, Warmup: 100, Measure: 300},
		{H: 2, Mechanism: OLM, Phases: []PhaseSpec{
			{Traffic: Traffic{Kind: UN}, Load: 0.2, Duration: 500},
			{Traffic: Traffic{Kind: MIX, GlobalPercent: 40}, Load: 0.3},
		}},
		{H: 2, Mechanism: OFAR, Load: 0.3, StaleCycles: 200, Faults: &FaultSpec{
			GlobalFraction: 0.05,
			Links:          []LinkID{{Router: 0, Port: 0}},
			Events:         []FaultEvent{{At: 300, Link: link}, {At: 600, Repair: true, Link: link}},
			Routers:        []RouterFault{{Router: 7, At: 200, Until: 900}},
			Bundles:        []BundleFault{{Group: 3, First: 0, Last: 2, At: 400}},
			Flaps:          []FlapSpec{{Link: LinkID{Router: 4, Port: 4}, At: 100, Period: 200, Down: 50, Count: 3}},
		}},
		{H: 2, FlowControl: WH, Workload: []JobSpec{{FirstNode: 0, LastNode: 35, Phases: []PhaseSpec{{BurstPackets: 5}}}}},
		{H: 2, Load: 0.1, FlowControl: 7}, // validated, then overflowed a credit counter mid-run
	} {
		buf, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Config
		if json.Unmarshal(data, &c) != nil || c.Validate() != nil {
			return
		}
		canon := c.Canonical()
		if canon.H > 4 {
			return // large networks cost the fuzzer time and find nothing new
		}
		if again := canon.Canonical(); !reflect.DeepEqual(canon, again) {
			t.Fatalf("Canonical is not a fixed point:\nonce:  %+v\ntwice: %+v", canon, again)
		}
		if err := canon.Validate(); err != nil {
			t.Fatalf("the canonical form of a valid config does not validate: %v", err)
		}
		c.build() //nolint:errcheck // a partitioning fault timeline is an error, not a panic
		if canon.H <= 2 {
			canon.Warmup, canon.Measure = min(canon.Warmup, 100), min(canon.Measure, 200)
			canon.MaxCycles = min(canon.MaxCycles, 2000)
			Run(canon) //nolint:errcheck // errors are fine; a panic fails the fuzz target
		}
	})
}
