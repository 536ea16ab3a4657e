package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
)

// runOpts selects one run: one workload, one seed, traced or not.
type runOpts struct {
	Workload workload
	Seed     uint64
	Seconds  float64 // repeat timed repetitions until this much is measured; 0 = one
	Trace    bool
	Small    bool // 1/20 of the points, for tests
}

// value is one metric reading in a result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last on its standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// detail is what a run knows beyond its result line; the suite reads it
// from the side file the run leaves in the out directory.
type detail struct {
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Reps       int      `json:"reps"`
	Points     int      `json:"points"`
	ConfigHash string   `json:"config_hash"`
	Outputs    string   `json:"outputs_sha256"` // digest of the per-point digests
	Golden     string   `json:"golden"`         // "match", "mismatch" or "none for this seed"
	Samples    int      `json:"latency_samples"`
	TailPct    float64  `json:"tail_percentile"`
	Notes      []string `json:"notes,omitempty"`
}

// door is a workload set up and ready for one timed repetition.
type door interface {
	pass(ctx context.Context) (rep, error)
	close() error
}

// open performs a repetition's set-up: generate and validate the inputs,
// load the golden digests, make the directories, start the service, warm
// the process up.
func open(ctx context.Context, o runOpts, rec *recorder) (door, []exp.Point, *checker, error) {
	pts, err := o.Workload.points(o.Seed, o.Small)
	if err != nil {
		return nil, nil, nil, err
	}
	chk, err := newChecker(o)
	if err != nil {
		return nil, nil, nil, err
	}
	var d door
	switch o.Workload.Door {
	case doorDirect:
		d = &directDoor{pts: pts}
	case doorLocal:
		d, err = openLocal(pts, rec)
	case doorFleet:
		d, err = openFleet(ctx, pts, lanes(), rec)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	if err := warmUp(o.Seed); err != nil {
		d.close() //nolint:errcheck // already failing
		return nil, nil, nil, err
	}
	return d, pts, chk, nil
}

// setupsPerRep is how many times each repetition sets up before its timed
// pass (all but the last are closed again at once): set-up takes
// milliseconds, and its median over many tries is what repeats.
const setupsPerRep = 15

// openTimed sets up setupsPerRep times and returns the last door with
// every set-up's duration in seconds.
func openTimed(ctx context.Context, o runOpts) (door, []exp.Point, *checker, []float64, error) {
	var (
		d     door
		pts   []exp.Point
		chk   *checker
		times []float64
	)
	for i := 0; i < setupsPerRep; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		start := time.Now()
		var err error
		if d, pts, chk, err = open(ctx, o, nil); err != nil {
			return nil, nil, nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return d, pts, chk, times, nil
}

// checker accumulates the correctness verdict of a run: every repetition
// must reproduce the first, and seed 1 must reproduce the golden digests.
type checker struct {
	golden   []string
	hasGold  bool
	first    []string
	failed   int
	attempts int
	notes    []string
}

func newChecker(o runOpts) (*checker, error) {
	c := &checker{}
	if o.Seed == goldenSeed && !o.Small {
		var err error
		c.golden, c.hasGold, err = loadGolden(o.Workload.Name)
		if err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (c *checker) note(format string, args ...any) {
	if len(c.notes) < 20 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// check folds one repetition in. The first repetition is the reference
// for the later ones; with golden digests, they are the reference for all.
func (c *checker) check(label string, r *rep) {
	if c.first == nil {
		c.first = r.Digests
	}
	want, what := c.first, "the first repetition"
	if c.hasGold {
		want, what = c.golden, "the golden digests"
	}
	bad := r.Failed
	if n := mismatches(r.Digests, want); n > 0 {
		bad += n
		c.note("%s: %d of %d points differ from %s", label, n, len(r.Digests), what)
	}
	for _, n := range r.Notes {
		c.note("%s: %s", label, n)
	}
	if len(r.Notes) > 0 && bad == 0 {
		bad = 1 // a broken exact expectation fails the run even with every point right
	}
	c.failed += min(bad, r.Points)
	c.attempts += r.Points
}

// compare checks another door's canonical JSONL against the run's own.
func (c *checker) compare(label string, jsonl []byte) {
	if n := mismatches(jsonlDigests(jsonl), c.first); n > 0 {
		c.failed += n
		c.note("%s: canonical JSONL differs at %d points", label, n)
	}
}

func (c *checker) goldenVerdict() string {
	switch {
	case !c.hasGold:
		return "none for this seed"
	case mismatches(c.first, c.golden) == 0:
		return "match"
	}
	return "mismatch"
}

// runWorkload performs one run and returns its result line and detail.
func runWorkload(ctx context.Context, o runOpts) (result, detail, error) {
	if o.Trace {
		return runTraced(ctx, o)
	}
	var (
		series   = map[string][]float64{} // metric -> one reading per repetition (per set-up for setup_s)
		measured float64
		pts      []exp.Point
		chk      *checker
		samples  int
		reps     int
	)
	// Repeat until the measured time is as close to the budget as whole
	// repetitions get: one more only while half of it still fits.
	for last := 0.0; reps == 0 || measured+last/2 < o.Seconds; reps++ {
		resetHWM()
		d, p, c, setups, err := openTimed(ctx, o)
		if err != nil {
			return result{}, detail{}, fmt.Errorf("set-up: %w", err)
		}
		if pts = p; chk == nil {
			chk = c
		}
		r, err := d.pass(ctx)
		if cerr := d.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, detail{}, err
		}
		peakKB := vmHWM()
		chk.check(fmt.Sprintf("repetition %d", reps), &r)
		last = r.Wall + r.WarmWall
		measured += last

		p50, tail := latencyStats(r.PointMS)
		samples = len(r.PointMS)
		warm := float64(r.Points) / r.Wall // no store on the direct door: a resubmission simulates again
		if r.WarmPts > 0 {
			warm = float64(r.WarmPts) / r.WarmWall
		}
		series["setup_s"] = append(series["setup_s"], setups...)
		for name, v := range map[string]float64{
			"points_per_s":      float64(r.Points) / r.Wall,
			"sim_cycles_per_s":  float64(r.Cycles) / r.Wall,
			"phits_per_s":       float64(r.Phits) / r.Wall,
			"point_ms_p50":      p50,
			"point_ms_tail":     tail,
			"warm_points_per_s": warm,
			"peak_rss_mb":       float64(peakKB) / 1024,
			"alloc_mb":          float64(r.Alloc) / (1 << 20),
		} {
			series[name] = append(series[name], v)
		}
	}

	res := result{
		Correct: chk.failed == 0, Attempted: chk.attempts, Failed: chk.failed,
		Metrics: make(map[string]value, len(endToEnd)),
	}
	for _, def := range endToEnd {
		res.Metrics[def.Name] = value{median(series[def.Name]), def.Unit}
	}
	det := detail{
		Workload: o.Workload.Name, Seed: o.Seed, Reps: reps, Points: len(pts),
		ConfigHash: configListHash(pts), Outputs: lineDigest([]byte(strings.Join(chk.first, "\n"))),
		Golden: chk.goldenVerdict(), Samples: samples, TailPct: tailPercentile(samples) * 100,
		Notes: chk.notes,
	}
	return res, det, nil
}

// resetHWM returns the previous repetition's garbage to the OS and resets
// the kernel's high-water mark of the process's resident set to what is
// left, so every repetition starts like a fresh process and reads its own
// peak. Where the kernel refuses, the mark stays process-wide and later
// repetitions repeat the highest peak so far.
func resetHWM() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) //nolint:errcheck // see above
}

// vmHWM is the process's peak resident set, in KiB, from /proc.
func vmHWM() int64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(buf, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) > 0 {
				kb, _ := strconv.ParseInt(f[0], 10, 64)
				return kb
			}
		}
	}
	return 0
}

// detailPath is where a run leaves its detail and the suite looks for it.
func detailPath(workload string, trace bool) (string, error) {
	out, err := outDir()
	if err != nil {
		return "", err
	}
	if trace {
		return filepath.Join(out, "run-"+workload+"-traced.json"), nil
	}
	return filepath.Join(out, "run-"+workload+".json"), nil
}
