package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	dragonfly "repro"
	"repro/internal/engine"
)

// Differential and allocation checks on the pooled codec (codec.go):
// every pooled encoder must emit the bytes of the json.Marshal call it
// replaced, and its allocations per call are pinned.

// codecFullResult is the "full" Result of the root package's
// TestResultJSONPinned: nonzero Suppressed, a two-window Timeline and two
// PhaseDigests.
func codecFullResult() dragonfly.Result {
	return dragonfly.Result{
		Mechanism: "OLM", Pattern: "ADVG+1", FlowControl: "VCT", OfferedLoad: 0.25,
		AcceptedLoad: 0.125, AvgTotalLatency: 40.5, AvgNetworkLatency: 38.25, P50Latency: 32, P99Latency: 128,
		AvgLocalHops: 1.5, AvgGlobalHops: 0.75, LocalMisrouteRate: 0.0625, GlobalMisrouteRate: 0.5, EscapeHopRate: 0.25,
		Delivered: 1000, Generated: 1010, InjectionLost: 3, Suppressed: 5, FaultDrops: 2, Cycles: 1200, Nodes: 72,
		PhitsMoved: 123456, LocalLinkUtil: 0.375, GlobalLinkUtil: 0.625, ConsumptionCycles: 999, Deadlock: true,
		Timeline: &dragonfly.Timeline{WindowCycles: 100, Windows: []dragonfly.Window{
			{Start: 0, End: 100, AcceptedLoad: 0.25, AvgTotalLatency: 40, P99Latency: 128,
				LocalMisrouteRate: 0.125, GlobalMisrouteRate: 0.5,
				Delivered: 10, Generated: 12, InjectionLost: 1, Suppressed: 4, FaultDrops: 1},
			{Start: 100, End: 150},
		}},
		PhaseDigests: []dragonfly.PhaseDigest{
			{Index: 0, Label: "UN@0.2", Nodes: 72, Start: 0, End: 100, AcceptedLoad: 0.25,
				AvgTotalLatency: 40, AvgNetworkLatency: 38, LocalMisrouteRate: 0.125, GlobalMisrouteRate: 0.5,
				Generated: 12, InjectionLost: 1, Suppressed: 4, Delivered: 10, FaultDrops: 1},
			{Index: 1, Label: "ADVG+2!5pkts", Nodes: 36, Start: 100, End: 150},
		},
	}
}

// codecOutcomes are the records the differential test encodes: a plain
// result, the full one (with characters json escapes in its label) and a
// failed point, each cached and timed so canonical and plain lines differ.
func codecOutcomes() []Outcome {
	base := tinyBase()
	phased := base
	phased.WindowCycles = 100
	phased.Phases = []dragonfly.PhaseSpec{{Traffic: dragonfly.Traffic{Kind: dragonfly.UN}, Load: 0.2, Duration: 500}}
	full := codecFullResult()
	full.PhaseDigests[1].Label = "<ADVG&+2>"
	return []Outcome{
		{Index: 0, Point: Point{Series: "Minimal", X: 0.1, Config: base}, Cached: true, Seconds: 0.125,
			Result: dragonfly.Result{Mechanism: "Minimal", OfferedLoad: 0.1, AcceptedLoad: 0.1, Delivered: 42}},
		{Index: 1, Point: Point{Series: "OLM", X: 0.25, Config: phased}, Seconds: 1.5, Result: full},
		{Index: 2, Point: Point{Series: "RLM", X: 0.4, Config: base}, Seconds: 0.5,
			Err: errors.New(`point 2: "bad" <config>`)},
	}
}

// codecKeyConfigs is a table of configurations for the key check.
func codecKeyConfigs() []dragonfly.Config {
	base := tinyBase()
	burst := base
	burst.BurstPackets = 10
	phased := dragonfly.Config{H: 4}
	phased.Phases = []dragonfly.PhaseSpec{
		{Traffic: dragonfly.Traffic{Kind: dragonfly.UN}, Load: 0.5, Duration: 4000},
		{Traffic: dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 4}, Load: 0.5},
	}
	faulted := dragonfly.PaperWH(3)
	faulted.Faults = &dragonfly.FaultSpec{Routers: []dragonfly.RouterFault{{Router: 3, At: 600}}}
	workers := base
	workers.Workers = 4
	return []dragonfly.Config{{}, {H: 4, Load: 0.5}, base, burst, phased, faulted, workers}
}

// legacyKey is Cache.Key as first written: the header and the canonical
// JSON written to a sha256 hash one after the other.
func legacyKey(cfg dragonfly.Config) string {
	canon, err := json.Marshal(cfg.Canonical())
	if err != nil {
		panic(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "dragonfly-exp-cache/%d engine/%d\n", cacheFormat, engine.ResultsVersion)
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))
}

// TestCodecMatchesMarshal is the differential check: JSONL records, SSE
// frames, cache entries and keys from the pooled codec equal what
// json.Marshal and json.MarshalIndent give, from several goroutines at
// once so the race detector sees the pool shared.
func TestCodecMatchesMarshal(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	outs := codecOutcomes()
	check := func(g int) {
		for i := range outs {
			o := &outs[i]
			for _, canonical := range []bool{true, false} {
				rec := NewRecord(o, canonical)
				want, err := json.Marshal(rec)
				if err != nil {
					t.Error(err)
					return
				}
				var got bytes.Buffer
				if err := writeRecord(&got, o, canonical); err != nil {
					t.Error(err)
				}
				if !bytes.Equal(got.Bytes(), append(want, '\n')) {
					t.Errorf("record %d canonical=%v:\n got %s\nwant %s", i, canonical, got.Bytes(), want)
				}
				if canonical {
					var viaAPI bytes.Buffer
					WriteCanonicalRecord(&viaAPI, o) //nolint:errcheck // a Buffer does not fail
					if !bytes.Equal(viaAPI.Bytes(), got.Bytes()) {
						t.Errorf("record %d: WriteCanonicalRecord differs from the canonical line", i)
					}
				}
				got.Reset()
				WriteFramedJSON(&got, "event: point\ndata: ", rec, "\n\n") //nolint:errcheck // a Buffer does not fail
				if frame := fmt.Sprintf("event: point\ndata: %s\n\n", want); got.String() != frame {
					t.Errorf("record %d: SSE frame\n got %q\nwant %q", i, got.String(), frame)
				}
			}
			if o.Err != nil {
				continue
			}
			cfg := o.Point.Config
			cfg.Seed = uint64(100*g + i)
			key := cache.Key(cfg)
			size, err := cache.put(key, cfg, o.Result)
			if err != nil {
				t.Error(err)
				continue
			}
			want, err := json.MarshalIndent(entry{cacheFormat, engine.ResultsVersion, cfg.Canonical(), o.Result}, "", "  ")
			if err != nil {
				t.Error(err)
				continue
			}
			file, err := os.ReadFile(filepath.Join(cache.dir, key+".json"))
			if err != nil {
				t.Error(err)
				continue
			}
			if !bytes.Equal(file, append(want, '\n')) {
				t.Errorf("entry of record %d:\n got %s\nwant %s", i, file, want)
			}
			if size != int64(len(file)) {
				t.Errorf("entry of record %d: put reported %d bytes, wrote %d", i, size, len(file))
			}
			if res, ok := cache.Get(key); !ok || !reflect.DeepEqual(res, o.Result) {
				t.Errorf("entry of record %d: Get = %v, %+v", i, ok, res)
			}
		}
		for i, cfg := range codecKeyConfigs() {
			if got, want := cache.Key(cfg), legacyKey(cfg); got != want {
				t.Errorf("config %d: key %s, want %s", i, got, want)
			}
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 5 {
				check(g)
			}
		}()
	}
	wg.Wait()
}

// codecCeilings bound the allocations of one call, measured on an amd64
// Linux box with go1.24: a key 4 (8 with json.Marshal, sha256.New, Sum
// and EncodeToString), a canonical JSONL line 1, the boxed Record (2 with
// json.Marshal's copy), and a warm cache hit of the full Result 29, the
// open file, its path and the decoded entry (31 with os.ReadFile). Each
// ceiling is its measured figure, so reverting any one site to the
// allocating form it replaced trips it.
var codecCeilings = struct{ key, record, hit float64 }{4, 1, 29}

// TestCodecAllocationCeilings pins what the codec saves per call.
func TestCodecAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("-race instrumentation changes allocation counts")
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := codecOutcomes()[1]
	key := cache.Key(o.Point.Config)
	if err := cache.Put(key, o.Point.Config, o.Result); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		op      func()
	}{
		{"Cache.Key", codecCeilings.key, func() { cache.Key(o.Point.Config) }},
		{"WriteCanonicalRecord", codecCeilings.record, func() { WriteCanonicalRecord(io.Discard, &o) }}, //nolint:errcheck // Discard does not fail
		{"warm Cache.Get", codecCeilings.hit, func() { cache.Get(key) }},
	} {
		got := testing.AllocsPerRun(100, tc.op)
		t.Logf("%s: %v allocs/op", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s allocates %v times per call, ceiling %v", tc.name, got, tc.ceiling)
		}
	}
}
