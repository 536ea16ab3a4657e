package dragonfly_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/topology"
)

// TestFaultSpecValidation covers the new Config.Faults checks.
func TestFaultSpecValidation(t *testing.T) {
	base := fast(dragonfly.Minimal)
	base.Load = 0.2

	cases := []struct {
		name   string
		faults *dragonfly.FaultSpec
	}{
		{"fraction >= 1", &dragonfly.FaultSpec{GlobalFraction: 1}},
		{"negative fraction", &dragonfly.FaultSpec{LocalFraction: -0.1}},
		{"NaN global fraction", &dragonfly.FaultSpec{GlobalFraction: math.NaN()}},
		{"NaN local fraction", &dragonfly.FaultSpec{LocalFraction: math.NaN()}},
		{"router out of range", &dragonfly.FaultSpec{Links: []dragonfly.LinkID{{Router: 10_000, Port: 0}}}},
		{"ejection port", &dragonfly.FaultSpec{Links: []dragonfly.LinkID{{Router: 0, Port: 3*2 - 1}}}},
		{"negative event cycle", &dragonfly.FaultSpec{Events: []dragonfly.FaultEvent{
			{At: -5, Link: dragonfly.LinkID{Router: 0, Port: 0}},
		}}},
		{"router fault out of range", &dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{{Router: 10_000}}}},
		{"negative router fault", &dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{{Router: -1}}}},
		{"router fault negative cycle", &dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{{Router: 3, At: -7}}}},
		{"router repaired before failing", &dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{
			{Router: 3, At: 500, Until: 500},
		}}},
		{"bundle group out of range", &dragonfly.FaultSpec{Bundles: []dragonfly.BundleFault{{Group: 99}}}},
		{"bundle degenerate local range", &dragonfly.FaultSpec{Bundles: []dragonfly.BundleFault{
			{Group: 1, First: 2, Last: 2},
		}}},
		{"bundle local range past group", &dragonfly.FaultSpec{Bundles: []dragonfly.BundleFault{
			{Group: 1, First: 0, Last: 4}, // h=2: router indices are [0, 4)
		}}},
		{"flap down >= period", &dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{
			{Link: dragonfly.LinkID{Router: 0, Port: 0}, Period: 100, Down: 100, Count: 4},
		}}},
		{"flap zero count", &dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{
			{Link: dragonfly.LinkID{Router: 0, Port: 0}, Period: 100, Down: 10},
		}}},
		{"flap count too large", &dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{
			{Link: dragonfly.LinkID{Router: 0, Port: 0}, Period: 100, Down: 10, Count: 100_001},
		}}},
		{"flap on ejection port", &dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{
			{Link: dragonfly.LinkID{Router: 0, Port: 3*2 - 1}, Period: 100, Down: 10, Count: 4},
		}}},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Faults = tc.faults
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: validation accepted %+v", tc.name, tc.faults)
		}
	}

	cfg := base
	cfg.Faults = &dragonfly.FaultSpec{
		GlobalFraction: 0.1,
		Links:          []dragonfly.LinkID{{Router: 0, Port: 0}},
		Events: []dragonfly.FaultEvent{
			{At: 100, Link: dragonfly.LinkID{Router: 1, Port: 1}},
			{At: 200, Repair: true, Link: dragonfly.LinkID{Router: 1, Port: 1}},
		},
		Routers: []dragonfly.RouterFault{{Router: 7, At: 1000, Until: 2000}},
		Bundles: []dragonfly.BundleFault{{Group: 3}, {Group: 1, First: 0, Last: 2, At: 500}},
		Flaps: []dragonfly.FlapSpec{
			{Link: dragonfly.LinkID{Router: 2, Port: 3}, At: 400, Period: 200, Down: 50, Count: 6},
		},
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid fault spec rejected: %v", err)
	}
}

// TestPartitionedFaultConfigRejected: a fault set that disconnects the
// network must be refused before any simulation runs — here, every link of
// router 0 (its 3 local links and 2 global channels at h=2... port list is
// all link ports).
func TestPartitionedFaultConfigRejected(t *testing.T) {
	cfg := fast(dragonfly.Minimal)
	cfg.Load = 0.2
	var links []dragonfly.LinkID
	for port := 0; port < 3*2-1; port++ { // all 5 link ports of router 0
		links = append(links, dragonfly.LinkID{Router: 0, Port: port})
	}
	cfg.Faults = &dragonfly.FaultSpec{Links: links}
	if _, err := dragonfly.Run(cfg); err == nil {
		t.Fatal("partitioned fault config accepted")
	}

	// Dynamic partition is rejected too.
	cfg.Faults = &dragonfly.FaultSpec{}
	for port := 0; port < 3*2-1; port++ {
		cfg.Faults.Events = append(cfg.Faults.Events,
			dragonfly.FaultEvent{At: 100, Link: dragonfly.LinkID{Router: 0, Port: port}})
	}
	if _, err := dragonfly.Run(cfg); err == nil {
		t.Fatal("dynamically partitioning fault config accepted")
	}

	// Only the state at each event-cycle boundary matters: isolating
	// router 0 and reconnecting it in the same cycle is legal (the engine
	// applies all same-cycle events before any routing runs).
	cfg.Faults.Events = append(cfg.Faults.Events,
		dragonfly.FaultEvent{At: 100, Repair: true, Link: dragonfly.LinkID{Router: 0, Port: 0}})
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatalf("same-cycle kill+repair batch with a connected end state rejected: %v", err)
	}
	if res.Deadlock {
		t.Fatal("same-cycle batch run deadlocked")
	}
}

// TestFaultCanonicalization: the two spellings of one link (either end)
// and shuffled event order must hash to the same cache key, and an empty
// spec must hash like no spec at all.
func TestFaultCanonicalization(t *testing.T) {
	cache := &exp.Cache{}
	base := fast(dragonfly.OLM)
	base.Load = 0.3

	plain := base
	empty := base
	empty.Faults = &dragonfly.FaultSpec{}
	if cache.Key(plain) != cache.Key(empty) {
		t.Error("empty fault spec changed the cache key")
	}

	// Link 0-(port 0) seen from router 0 and from its remote end.
	a := base
	a.Faults = &dragonfly.FaultSpec{Links: []dragonfly.LinkID{{Router: 0, Port: 0}}}
	canon := a.Canonical()
	if canon.Faults == nil || len(canon.Faults.Links) != 1 {
		t.Fatalf("canonical lost the fault link: %+v", canon.Faults)
	}
	cl := canon.Faults.Links[0]
	b := base
	b.Faults = &dragonfly.FaultSpec{Links: []dragonfly.LinkID{remoteEnd(t, cl)}}
	if cache.Key(a) != cache.Key(b) {
		t.Error("the two ends of one link hash differently")
	}
	if a.Faults.Links[0] != (dragonfly.LinkID{Router: 0, Port: 0}) {
		t.Error("Canonical mutated the caller's spec")
	}

	// Event order: same events, shuffled.
	e1 := dragonfly.FaultEvent{At: 100, Link: dragonfly.LinkID{Router: 0, Port: 0}}
	e2 := dragonfly.FaultEvent{At: 100, Link: dragonfly.LinkID{Router: 3, Port: 1}}
	c1, c2 := base, base
	c1.Faults = &dragonfly.FaultSpec{Events: []dragonfly.FaultEvent{e1, e2}}
	c2.Faults = &dragonfly.FaultSpec{Events: []dragonfly.FaultEvent{e2, e1}}
	if cache.Key(c1) != cache.Key(c2) {
		t.Error("same-cycle event order changed the cache key")
	}

	// Different fault specs must not collide.
	d := base
	d.Faults = &dragonfly.FaultSpec{GlobalFraction: 0.1}
	if cache.Key(d) == cache.Key(plain) {
		t.Error("a fault fraction did not change the cache key")
	}

	// Whole-router failures: listing order and duplicates are spelling,
	// "failed from the start" has one spelling regardless of sign.
	r1 := base
	r1.Faults = &dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{
		{Router: 9, At: 500}, {Router: 3}, {Router: 3, At: -4},
	}}
	r2 := base
	r2.Faults = &dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{
		{Router: 3, At: -100}, {Router: 9, At: 500},
	}}
	if cache.Key(r1) != cache.Key(r2) {
		t.Error("equivalent router-fault spellings hash differently")
	}
	if cache.Key(r1) == cache.Key(plain) {
		t.Error("router faults did not change the cache key")
	}

	// Bundle ranges: the two orientations of one local segment are one
	// bundle.
	b1, b2 := base, base
	b1.Faults = &dragonfly.FaultSpec{Bundles: []dragonfly.BundleFault{{Group: 2, First: 0, Last: 3}}}
	b2.Faults = &dragonfly.FaultSpec{Bundles: []dragonfly.BundleFault{{Group: 2, First: 3, Last: 0}}}
	if cache.Key(b1) != cache.Key(b2) {
		t.Error("the two orientations of a bundle range hash differently")
	}

	// Flaps: either end of the link names the same flap.
	f1 := base
	f1.Faults = &dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{
		{Link: dragonfly.LinkID{Router: 0, Port: 0}, At: 100, Period: 200, Down: 50, Count: 4},
	}}
	cfl := f1.Canonical().Faults.Flaps[0]
	f2 := base
	f2.Faults = &dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{
		{Link: remoteEnd(t, cfl.Link), At: 100, Period: 200, Down: 50, Count: 4},
	}}
	if cache.Key(f1) != cache.Key(f2) {
		t.Error("the two ends of a flapping link hash differently")
	}
}

// TestFaultCanonicalFixedPoint: Canonical must be idempotent on the richest
// spec we can spell — the second application may not change anything, or
// cache keys would drift between a config and its canonical form.
func TestFaultCanonicalFixedPoint(t *testing.T) {
	cfg := fast(dragonfly.OLM)
	cfg.Load = 0.3
	cfg.StaleCycles = 150
	cfg.Faults = &dragonfly.FaultSpec{
		GlobalFraction: 0.05,
		LocalFraction:  0.02,
		Links:          []dragonfly.LinkID{{Router: 5, Port: 1}, {Router: 0, Port: 3}},
		Events: []dragonfly.FaultEvent{
			{At: 900, Link: dragonfly.LinkID{Router: 4, Port: 2}},
			{At: 300, Link: dragonfly.LinkID{Router: 1, Port: 0}},
			{At: 900, Repair: true, Link: dragonfly.LinkID{Router: 4, Port: 2}},
		},
		Routers: []dragonfly.RouterFault{{Router: 11, At: -3}, {Router: 2, At: 700, Until: 1400}},
		Bundles: []dragonfly.BundleFault{{Group: 4, First: 3, Last: 1}, {Group: 6, At: 250}},
		Flaps: []dragonfly.FlapSpec{
			{Link: dragonfly.LinkID{Router: 8, Port: 4}, At: 100, Period: 300, Down: 60, Count: 12},
			{Link: dragonfly.LinkID{Router: 8, Port: 4}, At: 100, Period: 300, Down: 60, Count: 12},
		},
	}
	once := cfg.Canonical()
	twice := once.Canonical()
	if !reflect.DeepEqual(once, twice) {
		t.Fatalf("Canonical is not a fixed point:\nonce:  %+v\ntwice: %+v", once.Faults, twice.Faults)
	}
	cache := &exp.Cache{}
	if cache.Key(cfg) != cache.Key(once) {
		t.Fatal("a config and its canonical form hash differently")
	}
	if len(once.Faults.Flaps) != 1 {
		t.Fatalf("duplicate flap survived canonicalization: %+v", once.Faults.Flaps)
	}
}

// TestFaultCanonicalSpellings feeds every list of a FaultSpec through
// Canonical in permuted, duplicated and reversed-end spellings and demands
// the exact bytes of the reference spelling's canonical JSON — the cache
// key material — plus the order compile relies on: events sorted by cycle,
// then link, a same-cycle kill before its repair.
func TestFaultCanonicalSpellings(t *testing.T) {
	p := topology.MustNew(2)
	far := func(l dragonfly.LinkID) dragonfly.LinkID {
		r, port := p.LinkTarget(l.Router, l.Port)
		return dragonfly.LinkID{Router: r, Port: port}
	}
	// Links named from their higher-id end, so the canonical form must
	// rename every one of them.
	la, lb, lc := far(dragonfly.LinkID{Router: 0, Port: 0}), far(dragonfly.LinkID{Router: 2, Port: 3}), far(dragonfly.LinkID{Router: 5, Port: 1})
	kill := func(at int64, l dragonfly.LinkID) dragonfly.FaultEvent { return dragonfly.FaultEvent{At: at, Link: l} }
	repair := func(at int64, l dragonfly.LinkID) dragonfly.FaultEvent {
		return dragonfly.FaultEvent{At: at, Repair: true, Link: l}
	}
	flap := func(l dragonfly.LinkID, at int64) dragonfly.FlapSpec {
		return dragonfly.FlapSpec{Link: l, At: at, Period: 200, Down: 50, Count: 3}
	}
	ref := dragonfly.FaultSpec{
		Links:   []dragonfly.LinkID{far(la), far(lb), far(lc)},
		Events:  []dragonfly.FaultEvent{kill(300, far(lb)), kill(700, far(la)), repair(700, far(la)), kill(700, far(lc)), repair(900, far(lb))},
		Routers: []dragonfly.RouterFault{{Router: 4}, {Router: 9, At: 500}, {Router: 9, At: 500, Until: 800}},
		Bundles: []dragonfly.BundleFault{{Group: 1, First: 0, Last: 2}, {Group: 1, First: 1, Last: 3, At: 250}, {Group: 6, At: 400, Until: 600}},
		Flaps:   []dragonfly.FlapSpec{flap(far(la), 100), flap(far(la), 150), flap(far(lc), 100)},
	}
	canonJSON := func(f dragonfly.FaultSpec) string {
		cfg := fast(dragonfly.OLM)
		cfg.Load = 0.3
		cfg.Faults = &f
		buf, err := json.Marshal(cfg.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	want := canonJSON(ref)

	cases := []struct {
		name  string
		tweak func(f *dragonfly.FaultSpec)
	}{
		{"links permuted", func(f *dragonfly.FaultSpec) {
			f.Links = []dragonfly.LinkID{far(lc), far(la), far(lb)}
		}},
		{"links reversed ends", func(f *dragonfly.FaultSpec) { f.Links = []dragonfly.LinkID{la, lb, lc} }},
		{"links duplicated under both names", func(f *dragonfly.FaultSpec) {
			f.Links = []dragonfly.LinkID{lb, far(la), far(lb), lc, la, lb}
		}},
		{"events permuted", func(f *dragonfly.FaultSpec) {
			f.Events = []dragonfly.FaultEvent{repair(900, far(lb)), kill(700, far(lc)), repair(700, far(la)), kill(700, far(la)), kill(300, far(lb))}
		}},
		{"events reversed ends, repair listed before its kill", func(f *dragonfly.FaultSpec) {
			f.Events = []dragonfly.FaultEvent{repair(700, la), kill(700, la), kill(700, lc), repair(900, lb), kill(300, lb)}
		}},
		{"routers permuted, duplicated, negative start", func(f *dragonfly.FaultSpec) {
			f.Routers = []dragonfly.RouterFault{{Router: 9, At: 500, Until: 800}, {Router: 4, At: -7}, {Router: 9, At: 500}, {Router: 4}, {Router: 9, At: 500, Until: 800}}
		}},
		{"bundles permuted, duplicated, reversed range", func(f *dragonfly.FaultSpec) {
			f.Bundles = []dragonfly.BundleFault{{Group: 6, At: 400, Until: 600}, {Group: 1, First: 3, Last: 1, At: 250}, {Group: 1, First: 2, Last: 0, At: -1}, {Group: 1, First: 0, Last: 2}, {Group: 6, At: 400, Until: 600}}
		}},
		{"flaps permuted, duplicated, reversed ends", func(f *dragonfly.FaultSpec) {
			f.Flaps = []dragonfly.FlapSpec{flap(lc, 100), flap(la, 150), flap(far(la), 100), flap(la, 100), flap(far(lc), 100)}
		}},
	}
	for _, tc := range cases {
		f := ref
		tc.tweak(&f)
		if got := canonJSON(f); got != want {
			t.Errorf("%s: canonical JSON differs from the reference spelling:\n got: %s\nwant: %s", tc.name, got, want)
		}
	}

	cfg := fast(dragonfly.OLM)
	cfg.Load = 0.3
	cfg.Faults = &ref
	cf := cfg.Canonical().Faults
	wantEvents := []dragonfly.FaultEvent{kill(300, far(lb)), kill(700, far(la)), repair(700, far(la)), kill(700, far(lc)), repair(900, far(lb))}
	if !reflect.DeepEqual(cf.Events, wantEvents) {
		t.Errorf("canonical event order is not (cycle, link, kill before repair):\n got: %+v\nwant: %+v", cf.Events, wantEvents)
	}
	if len(cf.Links) != 3 || len(cf.Routers) != 3 || len(cf.Bundles) != 3 || len(cf.Flaps) != 3 {
		t.Errorf("canonical form lost or kept the wrong entries: %+v", cf)
	}
	// Exact-duplicate events are the one list Canonical does not compact:
	// applying an event twice is harmless, and the key of such a spelling
	// has always included both copies.
	dup := ref
	dup.Events = append([]dragonfly.FaultEvent{kill(300, lb)}, ref.Events...)
	cfg.Faults = &dup
	if got := len(cfg.Canonical().Faults.Events); got != len(ref.Events)+1 {
		t.Errorf("canonical form has %d events for %d listed (duplicates are kept)", got, len(ref.Events)+1)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("reference fault spec does not validate: %v", err)
	}
}

// remoteEnd resolves the other end of a canonical link via the public
// topology accessors (NetworkSize gives no ports, so walk candidates).
func remoteEnd(t *testing.T, l dragonfly.LinkID) dragonfly.LinkID {
	t.Helper()
	// Brute-force: the remote end is the unique other LinkID whose
	// canonical form equals l's.
	base := fast(dragonfly.Minimal)
	base.Load = 0.2
	routers, _, _, err := dragonfly.NetworkSize(2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < routers; r++ {
		for port := 0; port < 3*2-1; port++ {
			cand := dragonfly.LinkID{Router: r, Port: port}
			if cand == l {
				continue
			}
			cfg := base
			cfg.Faults = &dragonfly.FaultSpec{Links: []dragonfly.LinkID{cand}}
			canon := cfg.Canonical()
			if len(canon.Faults.Links) == 1 && canon.Faults.Links[0] == l {
				return cand
			}
		}
	}
	t.Fatalf("no remote end found for %+v", l)
	return dragonfly.LinkID{}
}

// TestFaultRunConservation: at the public API level, a faulted steady run
// accounts every generated packet as delivered, fault-dropped, lost at
// injection, or still in flight at quiesce.
func TestFaultRunConservation(t *testing.T) {
	cfg := fast(dragonfly.Minimal)
	cfg.Load = 0.25
	cfg.Warmup = 0 // count every event from cycle 0
	cfg.Faults = &dragonfly.FaultSpec{GlobalFraction: 0.2}
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatal("faulted run deadlocked")
	}
	if res.FaultDrops == 0 {
		t.Fatal("Minimal dropped nothing with 20% of global links down")
	}
	inFlight := res.Generated - res.InjectionLost - res.Delivered - res.FaultDrops
	if inFlight < 0 {
		t.Fatalf("conservation violated: generated %d < lost %d + delivered %d + dropped %d",
			res.Generated, res.InjectionLost, res.Delivered, res.FaultDrops)
	}
	// The in-flight residue is bounded by what the network can hold.
	if inFlight > int64(res.Nodes)*20 {
		t.Fatalf("implausible in-flight residue %d", inFlight)
	}
}

// TestFaultedRunsDiffer: the same config with and without faults must
// differ (the faults really bite), and two different fault seeds differ.
func TestFaultedRunsDiffer(t *testing.T) {
	cfg := fast(dragonfly.OLM)
	cfg.Load = 0.3
	plain, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &dragonfly.FaultSpec{GlobalFraction: 0.25}
	faulted, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.GlobalMisrouteRate == faulted.GlobalMisrouteRate &&
		plain.AvgTotalLatency == faulted.AvgTotalLatency {
		t.Fatal("25% global faults left OLM's behavior unchanged (suspicious)")
	}
}

// TestStaleCyclesConfig covers the stale-link-state knob's config surface:
// negative values are rejected, staleness without fault events is
// canonicalized away (it cannot affect results, so the spellings share a
// cache key), and staleness with events survives canonicalization.
func TestStaleCyclesConfig(t *testing.T) {
	cfg := fast(dragonfly.Minimal)
	cfg.Load = 0.2
	cfg.StaleCycles = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative StaleCycles accepted")
	}

	cfg.StaleCycles = 400
	if got := cfg.Canonical().StaleCycles; got != 0 {
		t.Errorf("StaleCycles %d survived canonicalization without fault events", got)
	}
	cfg.Faults = &dragonfly.FaultSpec{GlobalFraction: 0.1}
	if got := cfg.Canonical().StaleCycles; got != 0 {
		t.Errorf("StaleCycles %d survived canonicalization with static faults only", got)
	}
	cfg.Faults.Events = []dragonfly.FaultEvent{{At: 100, Link: dragonfly.LinkID{Router: 0, Port: 0}}}
	if got := cfg.Canonical().StaleCycles; got != 400 {
		t.Errorf("Canonical dropped StaleCycles with fault events present (got %d)", got)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid stale config rejected: %v", err)
	}
}

// TestCycleFieldBounds: every cycle-valued field of a Config is confined to
// [0, 2^40] by Validate. Out of it a run misbehaves rather than fails: a
// negative Measure reports Cycles < 0 (and would be cached as truth), a huge
// StaleCycles wraps an event's At + StaleCycles negative so the routing view
// learns of a kill before it happens, a huge Measure makes the defaulted
// MaxCycles negative. These configs arrive over POST /api/v1/campaigns.
func TestCycleFieldBounds(t *testing.T) {
	link := dragonfly.LinkID{Router: 0, Port: 0}
	faults := func(c *dragonfly.Config, f dragonfly.FaultSpec) { c.Faults = &f }
	fields := []struct {
		name string
		set  func(c *dragonfly.Config, v int64)
	}{
		{"Warmup", func(c *dragonfly.Config, v int64) { c.Warmup = v }},
		{"Measure", func(c *dragonfly.Config, v int64) { c.Measure = v }},
		{"MaxCycles", func(c *dragonfly.Config, v int64) { c.MaxCycles = v }},
		{"Watchdog", func(c *dragonfly.Config, v int64) { c.Watchdog = v }},
		{"WindowCycles", func(c *dragonfly.Config, v int64) { c.WindowCycles = v }},
		{"StaleCycles", func(c *dragonfly.Config, v int64) { c.StaleCycles = v }},
		{"PhaseSpec.Duration", func(c *dragonfly.Config, v int64) {
			c.Load = 0
			c.Phases = []dragonfly.PhaseSpec{{Load: 0.2, Duration: v}}
		}},
		{"FaultEvent.At", func(c *dragonfly.Config, v int64) {
			faults(c, dragonfly.FaultSpec{Events: []dragonfly.FaultEvent{{At: v, Link: link}}})
		}},
		{"RouterFault.At", func(c *dragonfly.Config, v int64) {
			faults(c, dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{{Router: 3, At: v}}})
		}},
		{"RouterFault.Until", func(c *dragonfly.Config, v int64) {
			faults(c, dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{{Router: 3, Until: v}}})
		}},
		{"BundleFault.At", func(c *dragonfly.Config, v int64) {
			faults(c, dragonfly.FaultSpec{Bundles: []dragonfly.BundleFault{{Group: 1, At: v}}})
		}},
		{"BundleFault.Until", func(c *dragonfly.Config, v int64) {
			faults(c, dragonfly.FaultSpec{Bundles: []dragonfly.BundleFault{{Group: 1, Until: v}}})
		}},
		{"FlapSpec.At", func(c *dragonfly.Config, v int64) {
			faults(c, dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{{Link: link, At: v, Period: 100, Down: 10, Count: 2}}})
		}},
		{"FlapSpec.Period", func(c *dragonfly.Config, v int64) {
			faults(c, dragonfly.FaultSpec{Flaps: []dragonfly.FlapSpec{{Link: link, Period: v, Down: 1, Count: 2}}})
		}},
	}
	const limit = int64(1) << 40
	for _, f := range fields {
		for _, v := range []int64{math.MinInt64, -7, -1, limit + 1, math.MaxInt64 / 40, math.MaxInt64} {
			cfg := fast(dragonfly.Minimal)
			cfg.Load = 0.2
			f.set(&cfg, v)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s = %d accepted", f.name, v)
			}
		}
		for _, v := range []int64{2, limit} {
			cfg := fast(dragonfly.Minimal)
			cfg.Load = 0.2
			f.set(&cfg, v)
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s = %d rejected: %v", f.name, v, err)
			}
		}
	}
}

// TestDegradedRunConservation: with a whole-router failure plus a flapping
// global channel, the public Result must still account every generation
// event — delivered, fault-dropped, lost at injection, suppressed at a
// parked source, or in flight at quiesce — and the parked router's nodes
// must actually have been suppressed.
func TestDegradedRunConservation(t *testing.T) {
	cfg := fast(dragonfly.OLM)
	cfg.Load = 0.25
	cfg.Warmup = 0 // count every event from cycle 0
	cfg.Faults = &dragonfly.FaultSpec{
		Routers: []dragonfly.RouterFault{{Router: 3, At: 500}},
		Flaps: []dragonfly.FlapSpec{
			{Link: dragonfly.LinkID{Router: 0, Port: 3}, At: 400, Period: 300, Down: 80, Count: 10},
		},
	}
	res, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatal("degraded run deadlocked")
	}
	if res.Suppressed == 0 {
		t.Fatal("a failed router parked no injections")
	}
	if res.FaultDrops == 0 {
		t.Fatal("a failed router plus a flapping channel dropped nothing")
	}
	inFlight := res.Generated - res.InjectionLost - res.Suppressed - res.Delivered - res.FaultDrops
	if inFlight < 0 {
		t.Fatalf("conservation violated: generated %d < lost %d + suppressed %d + delivered %d + dropped %d",
			res.Generated, res.InjectionLost, res.Suppressed, res.Delivered, res.FaultDrops)
	}
	if inFlight > int64(res.Nodes)*20 {
		t.Fatalf("implausible in-flight residue %d", inFlight)
	}
}

// TestLongFlapPrepareBounded is the regression for the deduped
// connectivity re-check: a maximal flap schedule expands to 200k fault
// events but only ever revisits two distinct link states, so validation
// must run O(distinct states) BFS passes, not O(events). Before the
// dedupe, this config re-ran the reachability sweep per event and took
// minutes at h=4; with it, Prepare is dominated by building the network.
func TestLongFlapPrepareBounded(t *testing.T) {
	cfg := dragonfly.PaperVCT(4)
	cfg.Load = 0.1
	cfg.Warmup, cfg.Measure = 100, 100
	cfg.Faults = &dragonfly.FaultSpec{
		Flaps: []dragonfly.FlapSpec{
			{Link: dragonfly.LinkID{Router: 0, Port: 7}, At: 0, Period: 4, Down: 2, Count: 100_000},
		},
	}
	start := time.Now()
	if _, err := dragonfly.Prepare(cfg); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("Prepare took %v on a 200k-event flap schedule; the connectivity dedupe has regressed", d)
	}
}
