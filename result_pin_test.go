package dragonfly_test

// Pins on the public result surface: the marshalled bytes of a Result, the
// on-disk cache entry layout, and the one mechanism property the engine
// enforces at build time.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	dragonfly "repro"
	"repro/internal/exp"
)

// pinnedPlain is a Result with every always-present field set and all three
// omitempty fields (Suppressed, Timeline, PhaseDigests) at their zero value.
var pinnedPlain = dragonfly.Result{
	Mechanism: "OLM", Pattern: "ADVG+1", FlowControl: "VCT", OfferedLoad: 0.25,
	AcceptedLoad: 0.125, AvgTotalLatency: 40.5, AvgNetworkLatency: 38.25, P50Latency: 32, P99Latency: 128,
	AvgLocalHops: 1.5, AvgGlobalHops: 0.75, LocalMisrouteRate: 0.0625, GlobalMisrouteRate: 0.5, EscapeHopRate: 0.25,
	Delivered: 1000, Generated: 1010, InjectionLost: 3, FaultDrops: 2, Cycles: 1200, Nodes: 72,
	PhitsMoved: 123456, LocalLinkUtil: 0.375, GlobalLinkUtil: 0.625, ConsumptionCycles: 999, Deadlock: true,
}

const pinnedPlainJSON = `{"Mechanism":"OLM","Pattern":"ADVG+1","FlowControl":"VCT","OfferedLoad":0.25,` +
	`"AcceptedLoad":0.125,"AvgTotalLatency":40.5,"AvgNetworkLatency":38.25,"P50Latency":32,"P99Latency":128,` +
	`"AvgLocalHops":1.5,"AvgGlobalHops":0.75,"LocalMisrouteRate":0.0625,"GlobalMisrouteRate":0.5,"EscapeHopRate":0.25,` +
	`"Delivered":1000,"Generated":1010,"InjectionLost":3,"FaultDrops":2,"Cycles":1200,"Nodes":72,` +
	`"PhitsMoved":123456,"LocalLinkUtil":0.375,"GlobalLinkUtil":0.625,"ConsumptionCycles":999,"Deadlock":true}`

// pinnedFullJSON is pinnedPlain plus a nonzero Suppressed at all three
// levels, a two-window Timeline and two PhaseDigests.
const pinnedFullJSON = `{"Mechanism":"OLM","Pattern":"ADVG+1","FlowControl":"VCT","OfferedLoad":0.25,` +
	`"AcceptedLoad":0.125,"AvgTotalLatency":40.5,"AvgNetworkLatency":38.25,"P50Latency":32,"P99Latency":128,` +
	`"AvgLocalHops":1.5,"AvgGlobalHops":0.75,"LocalMisrouteRate":0.0625,"GlobalMisrouteRate":0.5,"EscapeHopRate":0.25,` +
	`"Delivered":1000,"Generated":1010,"InjectionLost":3,"Suppressed":5,"FaultDrops":2,"Cycles":1200,"Nodes":72,` +
	`"PhitsMoved":123456,"LocalLinkUtil":0.375,"GlobalLinkUtil":0.625,"ConsumptionCycles":999,"Deadlock":true,` +
	`"Timeline":{"WindowCycles":100,"Windows":[` +
	`{"Start":0,"End":100,"AcceptedLoad":0.25,"AvgTotalLatency":40,"P99Latency":128,"LocalMisrouteRate":0.125,"GlobalMisrouteRate":0.5,` +
	`"Delivered":10,"Generated":12,"InjectionLost":1,"Suppressed":4,"FaultDrops":1},` +
	`{"Start":100,"End":150,"AcceptedLoad":0,"AvgTotalLatency":0,"P99Latency":0,"LocalMisrouteRate":0,"GlobalMisrouteRate":0,` +
	`"Delivered":0,"Generated":0,"InjectionLost":0,"FaultDrops":0}]},` +
	`"PhaseDigests":[` +
	`{"Index":0,"Label":"UN@0.2","Nodes":72,"Start":0,"End":100,"AcceptedLoad":0.25,"AvgTotalLatency":40,"AvgNetworkLatency":38,` +
	`"LocalMisrouteRate":0.125,"GlobalMisrouteRate":0.5,"Generated":12,"InjectionLost":1,"Suppressed":4,"Delivered":10,"FaultDrops":1},` +
	`{"Index":1,"Label":"ADVG+2!5pkts","Nodes":36,"Start":100,"End":150,"AcceptedLoad":0,"AvgTotalLatency":0,"AvgNetworkLatency":0,` +
	`"LocalMisrouteRate":0,"GlobalMisrouteRate":0,"Generated":0,"InjectionLost":0,"Delivered":0,"FaultDrops":0}]}`

// TestResultJSONPinned freezes the wire and disk shape of a Result: field
// names, field order and which fields vanish at zero. Canonical JSONL
// records, cache and store entries and the dragonsrv wire all embed these
// bytes, so a change here orphans every cache directory in the field.
func TestResultJSONPinned(t *testing.T) {
	full := pinnedPlain
	full.Suppressed = 5
	full.Timeline = &dragonfly.Timeline{WindowCycles: 100, Windows: []dragonfly.Window{
		{Start: 0, End: 100, AcceptedLoad: 0.25, AvgTotalLatency: 40, P99Latency: 128,
			LocalMisrouteRate: 0.125, GlobalMisrouteRate: 0.5,
			Delivered: 10, Generated: 12, InjectionLost: 1, Suppressed: 4, FaultDrops: 1},
		{Start: 100, End: 150},
	}}
	full.PhaseDigests = []dragonfly.PhaseDigest{
		{Index: 0, Label: "UN@0.2", Nodes: 72, Start: 0, End: 100, AcceptedLoad: 0.25,
			AvgTotalLatency: 40, AvgNetworkLatency: 38, LocalMisrouteRate: 0.125, GlobalMisrouteRate: 0.5,
			Generated: 12, InjectionLost: 1, Suppressed: 4, Delivered: 10, FaultDrops: 1},
		{Index: 1, Label: "ADVG+2!5pkts", Nodes: 36, Start: 100, End: 150},
	}
	for _, tc := range []struct {
		name string
		res  dragonfly.Result
		want string
	}{
		{"plain", pinnedPlain, pinnedPlainJSON},
		{"full", full, pinnedFullJSON},
	} {
		got, err := json.Marshal(tc.res)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: marshalled Result moved:\n got: %s\nwant: %s", tc.name, got, tc.want)
		}
		var back dragonfly.Result
		if err := json.Unmarshal([]byte(tc.want), &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tc.res) {
			t.Errorf("%s: pinned bytes do not decode to the Result that produced them:\n got: %+v\nwant: %+v",
				tc.name, back, tc.res)
		}
	}
	t.Run("cache entry", parentCacheEntryIsAHit)
}

// pinnedCacheConfig is the point behind testdata/cache: a phased, windowed
// run with a mid-run router failure, so its entry carries a Timeline,
// PhaseDigests and nonzero Suppressed counters.
func pinnedCacheConfig() dragonfly.Config {
	cfg := phasedConfig(dragonfly.OLM)
	cfg.Faults = &dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{{Router: 3, At: 600}}}
	return cfg
}

// parentCacheEntryIsAHit loads a cache entry written by the last binary
// whose public Result was its own struct (the commit before the result
// types became aliases of internal/metrics): the key must still address it, the entry must decode, and the decoded Result must equal a
// fresh simulation of the same point. The file is not regenerated by any
// flag — it only changes together with engine.ResultsVersion.
func parentCacheEntryIsAHit(t *testing.T) {
	src, err := filepath.Glob(filepath.Join("testdata", "cache", "*.json"))
	if err != nil || len(src) != 1 {
		t.Fatalf("want exactly one pinned cache entry, found %v (%v)", src, err)
	}
	dir := t.TempDir()
	buf, err := os.ReadFile(src[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(src[0])), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := exp.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pinnedCacheConfig()
	cached, ok := cache.Get(cache.Key(cfg))
	if !ok {
		t.Fatalf("entry %s written by the parent layout is a miss for key %s",
			filepath.Base(src[0]), cache.Key(cfg))
	}
	fresh, err := dragonfly.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, fresh) {
		t.Fatalf("cached entry differs from a fresh run:\ncached: %+v\n fresh: %+v", cached, fresh)
	}
	if fresh.Timeline == nil || len(fresh.PhaseDigests) != 2 || fresh.Suppressed == 0 {
		t.Fatalf("pinned point lost its timeline, phase digests or suppressed count: %+v", fresh)
	}
}

// TestRequiresVCTMatchesCore holds Mechanism.RequiresVCT — which answers
// without building a network — to what the engine enforces: Prepare under
// wormhole fails for exactly the mechanisms it names, and under virtual
// cut-through for none.
func TestRequiresVCTMatchesCore(t *testing.T) {
	if len(dragonfly.Mechanisms) != 8 {
		t.Fatalf("roster has %d mechanisms, want 8", len(dragonfly.Mechanisms))
	}
	for _, m := range dragonfly.Mechanisms {
		for _, flow := range []dragonfly.FlowControl{dragonfly.VCT, dragonfly.WH} {
			cfg := dragonfly.Config{H: 2, Mechanism: m, FlowControl: flow, Load: 0.1, Warmup: 10, Measure: 10}
			_, err := dragonfly.Prepare(cfg)
			if want := flow == dragonfly.WH && m.RequiresVCT(); (err != nil) != want {
				t.Errorf("%s/%s: Prepare error %v, RequiresVCT %v", m, flow, err, m.RequiresVCT())
			}
		}
	}
}
