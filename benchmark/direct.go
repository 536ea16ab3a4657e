package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	dragonfly "repro"
	"repro/internal/exp"
)

// simSums are simulated statistics summed over a repetition's results.
// The simulator is deterministic, so they must repeat exactly for a seed;
// any change is a change of semantics, not of speed.
type simSums struct {
	AcceptedLoad  float64
	LatencyCycles float64
	FaultDrops    int64
	BurstDrain    int64
}

func (s *simSums) add(r dragonfly.Result) {
	s.AcceptedLoad += r.AcceptedLoad
	s.LatencyCycles += r.AvgTotalLatency
	s.FaultDrops += r.FaultDrops
	s.BurstDrain += r.ConsumptionCycles
}

// rep is what one timed repetition of a workload measured.
type rep struct {
	Wall     float64   // s, timed region that points_per_s divides by (cold pass on campaigns)
	Points   int       // points completed in Wall
	Cycles   int64     // simulated cycles of the points simulated in Wall
	Phits    int64     // crossbar phit movements of those points
	RtrCyc   int64     // sum over those points of routers x cycles
	PointMS  []float64 // per simulated point, as its door reports it
	WarmWall float64   // s, summed over the warm passes (campaigns only)
	WarmPts  int       // points submitted over the warm passes
	Alloc    uint64    // bytes, TotalAlloc delta over the whole timed region
	Digests  []string  // per submitted point: SHA-256 of its canonical record
	Failed   int       // points with Err or an unexpected Deadlock
	Sums     simSums
	Notes    []string // exact expectations that did not hold

	// Traced repetitions only.
	FamilyCycles map[string]int64   // transient_faults: simulated cycles per sub-family
	FamilyWall   map[string]float64 // and the wall spent on them
	StepMallocs  uint64             // Mallocs delta summed across RunContext calls
	StepAlloc    uint64             // TotalAlloc delta summed across RunContext calls
	PrepAlloc    uint64             // TotalAlloc delta summed across Prepare calls
}

// account folds one point's outcome into the repetition; cycles is how
// many cycles its simulation stepped (warmup included).
func (r *rep) account(p exp.Point, res dragonfly.Result, err error, cycles int64) {
	if err != nil || res.Deadlock {
		r.Failed++
		if len(r.Notes) < 5 {
			r.Notes = append(r.Notes, fmt.Sprintf("%s: err=%v deadlock=%v", p.Series, err, res.Deadlock))
		}
		return
	}
	r.Cycles += cycles
	h := int64(p.Config.H)
	r.RtrCyc += 2 * h * (2*h*h + 1) * cycles
	r.Phits += res.PhitsMoved
	r.Sums.add(res)
}

// directDoor runs a point list the raw way: serial Prepare + RunContext,
// one point at a time.
type directDoor struct {
	pts []exp.Point
}

func (d *directDoor) close() error { return nil }

// pass is one timed repetition. Nothing but Prepare and RunContext runs
// inside the timed region; results are digested after it.
func (d *directDoor) pass(ctx context.Context) (rep, error) {
	r := rep{PointMS: make([]float64, len(d.pts)), Points: len(d.pts)}
	done := make([]directResult, len(d.pts))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i, p := range d.pts {
		t0 := time.Now()
		sim, err := dragonfly.Prepare(p.Config)
		if err == nil {
			done[i].res, err = sim.RunContext(ctx)
			done[i].cycles = sim.Cycles()
		}
		done[i].err = err
		r.PointMS[i] = float64(time.Since(t0)) / 1e6
	}
	r.Wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	r.Alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return r, d.digest(&r, done)
}

// directResult is what the direct door keeps of a point until the timed
// region is over.
type directResult struct {
	res    dragonfly.Result
	err    error
	cycles int64
}

func (d *directDoor) digest(r *rep, done []directResult) error {
	r.Digests = make([]string, len(d.pts))
	for i, p := range d.pts {
		r.account(p, done[i].res, done[i].err, done[i].cycles)
		if done[i].err != nil {
			continue
		}
		dg, err := recordDigest(i, p, done[i].res)
		if err != nil {
			return err
		}
		r.Digests[i] = dg
	}
	return nil
}

// tracedPass is pass with a span around every call into a layer and
// MemStats deltas around Prepare and RunContext. It walks one point
// through the whole per-point budget — validate, key, store lookup,
// prepare, step, encode, store put — against a scratch cache, so the
// direct door's trace has the same span names as the orchestrated doors.
func (d *directDoor) tracedPass(ctx context.Context, rec *recorder, scratch *exp.Cache) (rep, error) {
	r := rep{
		PointMS: make([]float64, len(d.pts)), Points: len(d.pts),
		FamilyCycles: map[string]int64{}, FamilyWall: map[string]float64{},
	}
	done := make([]directResult, len(d.pts))
	var ms0, ms1, a, b runtime.MemStats
	var sink bytes.Buffer
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i, p := range d.pts {
		root := rec.begin("point", -1, i)

		s := rec.begin("validate", root, i)
		err := p.Config.Validate()
		rec.end(s)

		s = rec.begin("key", root, i)
		key := scratch.Key(p.Config)
		rec.end(s)

		s = rec.begin("store.get", root, i)
		scratch.Get(key)
		rec.end(s)

		t0 := time.Now()
		var sim *dragonfly.Sim
		if err == nil {
			runtime.ReadMemStats(&a)
			s = rec.begin("prepare", root, i)
			sim, err = dragonfly.Prepare(p.Config)
			rec.end(s)
			runtime.ReadMemStats(&b)
			r.PrepAlloc += b.TotalAlloc - a.TotalAlloc
		}
		if err == nil {
			s = rec.begin("step", root, i)
			done[i].res, err = sim.RunContext(ctx)
			rec.end(s)
			done[i].cycles = sim.Cycles()
			runtime.ReadMemStats(&a)
			r.StepAlloc += a.TotalAlloc - b.TotalAlloc
			r.StepMallocs += a.Mallocs - b.Mallocs
		}
		wall := time.Since(t0)
		r.PointMS[i] = float64(wall) / 1e6
		done[i].err = err
		if err == nil {
			family, _, _ := strings.Cut(p.Series, " ")
			r.FamilyCycles[family] += done[i].cycles
			r.FamilyWall[family] += wall.Seconds()

			s = rec.begin("encode", root, i)
			sink.Reset()
			err = exp.WriteCanonicalRecord(&sink, &exp.Outcome{Index: i, Point: p, Result: done[i].res})
			rec.end(s)
			if err != nil {
				return r, err
			}
			s = rec.begin("store.put", root, i)
			err = scratch.Put(key, p.Config, done[i].res)
			rec.end(s)
			if err != nil {
				return r, err
			}
		}
		rec.end(root)
	}
	r.Wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	r.Alloc = ms1.TotalAlloc - ms0.TotalAlloc
	return r, d.digest(&r, done)
}
