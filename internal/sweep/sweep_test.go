package sweep

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	dragonfly "repro"
	"repro/internal/exp"
	"repro/internal/topology"
)

func tinyBase() dragonfly.Config {
	cfg := dragonfly.PaperVCT(2)
	cfg.LatLocal, cfg.LatGlobal = 4, 16
	cfg.Warmup, cfg.Measure = 400, 800
	cfg.Seed = 7
	return cfg
}

func TestLoadSweepShapes(t *testing.T) {
	series, err := LoadSweep(tinyBase(),
		[]dragonfly.Mechanism{dragonfly.Minimal, dragonfly.RLM},
		[]float64{0.1, 0.3}, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Result.Delivered == 0 {
				t.Fatalf("series %s x=%v delivered nothing", s.Name, p.X)
			}
		}
		if s.Points[0].X != 0.1 || s.Points[1].X != 0.3 {
			t.Fatalf("series %s x order wrong: %v %v", s.Name, s.Points[0].X, s.Points[1].X)
		}
	}
}

func TestLoadSweepRejectsEmpty(t *testing.T) {
	if _, err := LoadSweep(tinyBase(), nil, []float64{0.1}, Options{}); err == nil {
		t.Fatal("empty mechanisms accepted")
	}
	if _, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.RLM}, nil, Options{}); err == nil {
		t.Fatal("empty loads accepted")
	}
}

func TestMixSweep(t *testing.T) {
	series, err := MixSweep(tinyBase(),
		[]dragonfly.Mechanism{dragonfly.RLM},
		[]float64{0, 100}, 0.8, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range series[0].Points {
		if p.Result.Delivered == 0 {
			t.Fatalf("mix %v%% delivered nothing", p.X)
		}
	}
}

func TestBurstSweep(t *testing.T) {
	series, err := BurstSweep(tinyBase(),
		[]dragonfly.Mechanism{dragonfly.RLM},
		[]float64{50}, 5, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := series[0].Points[0]
	if p.Result.ConsumptionCycles <= 0 {
		t.Fatalf("consumption cycles %d", p.Result.ConsumptionCycles)
	}
	if _, err := BurstSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.RLM}, []float64{50}, 0, Options{}); err == nil {
		t.Fatal("zero burst size accepted")
	}
}

func TestThresholdSweep(t *testing.T) {
	series, err := ThresholdSweep(tinyBase(), dragonfly.RLM,
		[]float64{0.3, 0.6}, []float64{0.2}, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	if !strings.Contains(series[0].Name, "30%") {
		t.Fatalf("series name %q lacks threshold", series[0].Name)
	}
}

func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	count := 0
	_, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.Minimal},
		[]float64{0.1, 0.2}, Options{Parallelism: 2, Progress: func(string, Point) {
			mu.Lock()
			count++
			mu.Unlock()
		}})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("progress called %d times, want 2", count)
	}
}

func TestLoadsGrid(t *testing.T) {
	g := Loads(0.1, 0.9, 5)
	if len(g) != 5 || g[0] != 0.1 || g[4] != 0.9 {
		t.Fatalf("grid %v", g)
	}
	if len(Loads(0.5, 1, 1)) != 1 {
		t.Fatal("n=1 grid")
	}
}

// TestPerPointErrorSurfacing checks the orchestrator-backed sweep keeps
// going past a failing point: the returned series are complete, the bad
// point carries its error, and the sweep error names it.
func TestPerPointErrorSurfacing(t *testing.T) {
	base := tinyBase()
	base.FlowControl = dragonfly.WH
	base.PacketPhits = 40
	// OLM requires VCT, so its points fail while RLM's succeed.
	series, err := LoadSweep(base,
		[]dragonfly.Mechanism{dragonfly.OLM, dragonfly.RLM},
		[]float64{0.1}, Options{Parallelism: 2})
	if err == nil || !strings.Contains(err.Error(), "OLM") {
		t.Fatalf("sweep error %v does not name the failing series", err)
	}
	if series[0].Points[0].Err == nil {
		t.Fatal("failing point has no per-point error")
	}
	if series[1].Points[0].Err != nil || series[1].Points[0].Result.Delivered == 0 {
		t.Fatalf("healthy series poisoned: %+v", series[1].Points[0])
	}
}

func TestSweepUsesCache(t *testing.T) {
	cache, err := exp.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Parallelism: 2, Cache: cache}
	first, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.Minimal}, []float64{0.1, 0.3}, opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.Minimal}, []float64{0.1, 0.3}, opt)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := cache.Stats()
	if hits != 2 {
		t.Fatalf("%d cache hits on the repeated sweep, want 2", hits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached sweep differs from the original")
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	series, err := LoadSweep(tinyBase(), []dragonfly.Mechanism{dragonfly.Minimal},
		[]float64{0.1}, Options{Context: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep error = %v", err)
	}
	if series[0].Points[0].Err == nil {
		t.Fatal("canceled point has no error")
	}
}

// remoteStub is a Runner that records the campaign and options it was
// handed and simulates nothing.
type remoteStub struct {
	camp exp.Campaign
	got  exp.Options
}

func (r *remoteStub) Run(ctx context.Context, camp exp.Campaign, opt exp.Options) ([]exp.Outcome, error) {
	r.camp, r.got = camp, opt
	outs := make([]exp.Outcome, len(camp.Points))
	for i := range outs {
		outs[i] = exp.Outcome{Index: i, Point: camp.Points[i]}
	}
	return outs, nil
}

// TestRunRemoteDropsLocalCache pins the option mapping every sweep and
// paperfigs' transient figure share: a remote run executes on the
// Runner, in canonical JSONL mode, and never consults the local cache —
// the server has its own store.
func TestRunRemoteDropsLocalCache(t *testing.T) {
	cache, err := exp.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	remote := &remoteStub{}
	camp := exp.NewMatrix(tinyBase()).Mechanisms(dragonfly.Minimal).Loads(0.1, 0.3).Campaign("stub")
	outs, err := Run(camp, Options{Parallelism: 3, Cache: cache, Remote: remote})
	if err != nil || len(outs) != 2 {
		t.Fatalf("Run = %d outcomes, %v", len(outs), err)
	}
	if remote.got.Cache != nil || !remote.got.CanonicalJSONL || remote.got.Workers != 3 {
		t.Fatalf("remote run got options %+v", remote.got)
	}
	if hits, misses := cache.Stats(); hits+misses != 0 {
		t.Fatalf("remote run touched the local cache: %d hits, %d misses", hits, misses)
	}
}

// degradationCampaign returns the points DegradationSweep builds for base
// at the given severities, captured by a Runner that simulates nothing.
func degradationCampaign(t *testing.T, base dragonfly.Config, severities []int) []exp.Point {
	t.Helper()
	remote := &remoteStub{}
	if _, err := DegradationSweep(base, []dragonfly.Mechanism{dragonfly.OLM}, severities, Options{Remote: remote}); err != nil {
		t.Fatal(err)
	}
	if len(remote.camp.Points) != len(severities) {
		t.Fatalf("%d points for %d severities", len(remote.camp.Points), len(severities))
	}
	return remote.camp.Points
}

// TestDegradationSweepCampaign pins the fault timeline each severity
// builds: the defaulted shape comes from Config's own defaults, severity 0
// is pristine, and severity s fails router index 0 of groups 1..s and
// flaps group 0's channel to group h s times across the measured window.
func TestDegradationSweepCampaign(t *testing.T) {
	severities := []int{0, 1, 2, 3}
	zero := degradationCampaign(t, dragonfly.Config{}, severities)
	explicit := degradationCampaign(t, dragonfly.Config{H: 4, Warmup: 3000, Measure: 6000}, severities)
	for i := range zero {
		if a, b := zero[i].Config.Canonical(), explicit[i].Config.Canonical(); !reflect.DeepEqual(a, b) {
			t.Fatalf("severity %d: zero base %+v, explicit defaults %+v", severities[i], a.Faults, b.Faults)
		}
	}

	for _, base := range []dragonfly.Config{{}, tinyBase(), {H: 2, Warmup: 10, Measure: 16}} {
		canon := base.Canonical()
		p := topology.MustNew(canon.H)
		period := max(canon.Measure/8, 4)
		for i, pt := range degradationCampaign(t, base, severities) {
			s, f := severities[i], pt.Config.Faults
			if s == 0 {
				if f != nil {
					t.Fatalf("H=%d severity 0 has faults %+v", canon.H, f)
				}
				continue
			}
			if f == nil || len(f.Routers) != s || len(f.Flaps) != 1 {
				t.Fatalf("H=%d severity %d: faults %+v", canon.H, s, f)
			}
			for g, rf := range f.Routers {
				if rf != (dragonfly.RouterFault{Router: p.RouterID(g+1, 0)}) {
					t.Fatalf("H=%d severity %d: router fault %d is %+v", canon.H, s, g, rf)
				}
			}
			fl := f.Flaps[0]
			remote, _ := p.LinkTarget(fl.Link.Router, fl.Link.Port)
			if !p.IsGlobalPort(fl.Link.Port) || p.GroupOf(fl.Link.Router) != 0 || p.GroupOf(remote) != canon.H {
				t.Fatalf("H=%d severity %d: flapped link %+v is not group 0's channel to group h", canon.H, s, fl.Link)
			}
			want := dragonfly.FlapSpec{Link: fl.Link, At: canon.Warmup + period/2, Period: period, Down: period / 2, Count: s}
			if fl != want {
				t.Fatalf("H=%d severity %d: flap %+v, want %+v", canon.H, s, fl, want)
			}
		}
	}
}
