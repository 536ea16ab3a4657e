package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"

	dragonfly "repro"
	"repro/internal/exp"
)

// lanes is L: the number of execution lanes of the closed loop — never
// more goroutines simulating (or serving HTTP for a simulation) than this.
func lanes() int { return min(2, runtime.NumCPU()) }

// Doors a workload can enter the system through.
const (
	doorDirect = "direct"   // serial dragonfly.Prepare + Sim.RunContext
	doorLocal  = "exp.Run"  // in-process orchestrator with a result cache
	doorFleet  = "srv+work" // coordinator + remote workers over loopback HTTP
)

// workload is one named set of inputs. points is a pure function of the
// seed: the program under test receives only the generated Configs.
type workload struct {
	Name   string
	Door   string
	Why    string // one line, copied into BENCHMARK.json
	points func(seed uint64, small bool) ([]exp.Point, error)
}

// workloads lists the six workloads in the order the suite runs them.
var workloads = []workload{
	{"lowload_small", doorDirect,
		"dfbench matrix at load 0.05 x5 seeds, direct door: injection, quiet-router skip, Prepare and first-touch dominate; route replay idle",
		func(seed uint64, small bool) ([]exp.Point, error) { return matrixPoints(seed, 0.05, 5, small) }},
	{"saturation_small", doorDirect,
		"dfbench matrix at load 1.0, direct door: plan replay, crossbar, credit stalls and RecordDelivery dominate; Prepare under 1%",
		func(seed uint64, small bool) ([]exp.Point, error) { return matrixPoints(seed, 1.0, 1, small) }},
	{"scale_h8", doorDirect,
		"one paper-size h=8 OLM point at L engine workers: the only workload where shards, barrier, rebalancing and resident size matter",
		scalePoints},
	{"transient_faults", doorDirect,
		"h=3 phased bursts and faulted steady runs: long empty gaps, phase changes, fault-epoch plan invalidation, drops, timeline windows",
		transientPoints},
	{"campaign_local", doorLocal,
		"1,920 ~1 ms points + 192 repeats through exp.Run with a fresh cache, then 3 warm passes: dispatch, keying, JSON and cache I/O dominate",
		campaignPoints},
	{"campaign_fleet", doorFleet,
		"the same campaign through coordinator + L workers over loopback HTTP: submit, flights, queue, worker POSTs, store, SSE; engine share smallest",
		campaignPoints},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// thin keeps every 20th point when small: the test-sized smoke.
func thin(pts []exp.Point, small bool) []exp.Point {
	if !small {
		return pts
	}
	var out []exp.Point
	for i := 0; i < len(pts); i += 20 {
		out = append(out, pts[i])
	}
	return out
}

// seedPoints gives point i the seed exp.PointSeed(seed, i) and advances
// it until the config builds: a seeded fault draw can partition the
// network, which only construction detects.
func seedPoints(pts []exp.Point, seed uint64) error {
	for i := range pts {
		c := &pts[i].Config
		c.Seed = exp.PointSeed(seed, i)
		for try := 0; ; try++ {
			err := c.Validate()
			if err == nil && c.Faults != nil {
				_, err = dragonfly.Prepare(*c)
			}
			if err == nil {
				break
			}
			if c.Faults == nil || try == 16 {
				return fmt.Errorf("point %d (%s): %w", i, pts[i].Series, err)
			}
			c.Seed++
		}
	}
	return nil
}

var benchMechs = []dragonfly.Mechanism{
	dragonfly.Minimal, dragonfly.Valiant, dragonfly.PAR62,
	dragonfly.Piggybacking, dragonfly.RLM, dragonfly.OLM, dragonfly.OFAR,
}

// matrixPoints is cmd/dfbench's fixed 48-config matrix (serial points) at
// one offered load, replicated over seed replicas, so numbers line up
// with the BENCH_1..3 trajectory.
func matrixPoints(seed uint64, load float64, replicas int, small bool) ([]exp.Point, error) {
	hs := []int{2, 3}
	patterns := []dragonfly.Traffic{{Kind: dragonfly.UN}, {Kind: dragonfly.ADVG, Offset: 1}}
	pts := exp.NewMatrix(dragonfly.Config{}).
		Axis(replicas,
			func(i int) string { return fmt.Sprintf("rep=%d", i) },
			func(*dragonfly.Config, int) {}).
		Axis(len(hs),
			func(i int) string { return fmt.Sprintf("h=%d", hs[i]) },
			func(c *dragonfly.Config, i int) {
				*c = dragonfly.PaperVCT(hs[i])
				c.LatLocal, c.LatGlobal = 4, 16
				c.Warmup, c.Measure, c.Workers = 500, 1500, 1
				c.Load = load
			}).
		Axis(2,
			func(i int) string { return []string{"VCT", "WH"}[i] },
			func(c *dragonfly.Config, i int) {
				if i == 1 {
					c.FlowControl, c.PacketPhits = dragonfly.WH, 40
				}
			}).
		Mechanisms(benchMechs...).
		Axis(len(patterns),
			func(i int) string { return []string{"UN", "ADVG+1"}[i] },
			func(c *dragonfly.Config, i int) { c.Traffic = patterns[i] }).
		Filter(func(c dragonfly.Config) bool {
			return !(c.Mechanism.RequiresVCT() && c.FlowControl == dragonfly.WH)
		}).
		Points()
	for i := range pts {
		pts[i].X = load
	}
	if err := seedPoints(pts, seed); err != nil {
		return nil, err
	}
	return thin(pts, small), nil
}

// scalePoints is the single paper-size point (h=4 when small).
func scalePoints(seed uint64, small bool) ([]exp.Point, error) {
	h := dragonfly.PaperH
	if small {
		h = 4
	}
	c := dragonfly.PaperVCT(h)
	c.Mechanism = dragonfly.OLM
	c.Load = 0.2
	c.Warmup, c.Measure = 200, 500
	c.Workers = lanes()
	pts := []exp.Point{{Series: fmt.Sprintf("h=%d OLM UN", h), X: c.Load, Config: c}}
	return pts, seedPoints(pts, seed)
}

// Sub-families of transient_faults, used as the Series prefix.
const (
	familySparse  = "sparse"
	familyFaulted = "faulted"
)

// transientPoints is, per mechanism, (a) sparse phased bursts and (b) a
// faulted steady run under a stale routing view.
func transientPoints(seed uint64, small bool) ([]exp.Point, error) {
	var pts []exp.Point
	for _, m := range benchMechs[:6] {
		a := dragonfly.PaperVCT(3)
		a.Mechanism = m
		for ph := 0; ph < 6; ph++ {
			spec := dragonfly.PhaseSpec{BurstPackets: 20, Duration: 10000}
			if ph%2 == 1 {
				spec.Traffic = dragonfly.Traffic{Kind: dragonfly.ADVG, Offset: 1}
			}
			if ph == 5 {
				spec.Duration = 0
			}
			a.Phases = append(a.Phases, spec)
		}
		a.Warmup, a.Measure, a.WindowCycles = 1000, 59000, 500

		b := dragonfly.PaperVCT(3)
		b.Mechanism = m
		b.LatLocal, b.LatGlobal = 4, 16
		b.Load = 0.2
		b.Warmup, b.Measure, b.WindowCycles, b.StaleCycles = 1000, 9000, 250, 200
		b.Faults = &dragonfly.FaultSpec{
			GlobalFraction: 0.05,
			Routers:        []dragonfly.RouterFault{{Router: 5, At: 3000, Until: 6000}},
			Flaps: []dragonfly.FlapSpec{{
				Link: dragonfly.LinkID{Router: 0, Port: 5}, At: 2000, Period: 400, Down: 100, Count: 10,
			}},
		}
		pts = append(pts,
			exp.Point{Series: familySparse + " " + m.String(), Config: a},
			exp.Point{Series: familyFaulted + " " + m.String(), X: b.Load, Config: b})
	}
	if err := seedPoints(pts, seed); err != nil {
		return nil, err
	}
	if small { // one faulted point: the cheap family, and the one with drops
		return pts[1:2], nil
	}
	return pts, nil
}

// campaignCounts returns the exact expectations of a campaign's cold
// pass: simulations run, and points served without simulating.
func campaignCounts(pts []exp.Point) (distinct, repeats int) {
	for _, p := range pts {
		if p.Config.Workers == 2 {
			repeats++
		}
	}
	return len(pts) - repeats, repeats
}

// campaignPoints is campaign "tiny": 6 mechanisms x 10 loads x 32 seed
// replicas of a ~1 ms h=2 point, plus every 10th point again at the end
// with Workers: 2 — a field Canonical() drops, so the repeat has the same
// store key and must be served without simulating.
func campaignPoints(seed uint64, small bool) ([]exp.Point, error) {
	base := dragonfly.PaperVCT(2)
	base.LatLocal, base.LatGlobal = 4, 16
	base.Warmup, base.Measure = 100, 200
	loads := make([]float64, 10)
	for i := range loads {
		loads[i] = float64(i+1) / 50
	}
	pts := exp.NewMatrix(base).
		Axis(32,
			func(i int) string { return fmt.Sprintf("rep=%d", i) },
			func(*dragonfly.Config, int) {}).
		Mechanisms(benchMechs[:6]...).
		Loads(loads...).
		Points()
	if err := seedPoints(pts, seed); err != nil {
		return nil, err
	}
	pts = thin(pts, small)
	for i, n := 0, len(pts); i < n; i += 10 {
		again := pts[i]
		again.Config.Workers = 2
		pts = append(pts, again)
	}
	return pts, nil
}

// configListHash identifies a generated point list.
func configListHash(pts []exp.Point) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range pts {
		enc.Encode(p) //nolint:errcheck // hash.Hash never fails a write
	}
	return hex.EncodeToString(h.Sum(nil))
}

// warmUp runs three tiny untimed points, so the timed region never pays
// for the process's first trip through the engine.
func warmUp(seed uint64) error {
	c := dragonfly.PaperVCT(2)
	c.Mechanism = dragonfly.OLM
	c.LatLocal, c.LatGlobal = 4, 16
	c.Load, c.Warmup, c.Measure = 0.1, 100, 200
	for i := 0; i < 3; i++ {
		c.Seed = exp.PointSeed(seed, 1<<20+i) // far from any workload point's index
		if _, err := dragonfly.Run(c); err != nil {
			return fmt.Errorf("warm-up point: %w", err)
		}
	}
	return nil
}
