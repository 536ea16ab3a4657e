package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// suiteOpts configures the whole-suite run.
type suiteOpts struct {
	Seed      uint64
	K         int
	Selfcheck bool
}

// fingerprint says where and on what a report was measured; numbers from
// different fingerprints are not comparable.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Lanes      int    `json:"lanes"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Seed       uint64 `json:"seed"`
	K          int    `json:"k"`
}

func machineFingerprint(seed uint64, k int) fingerprint {
	fp := fingerprint{
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Lanes: lanes(), GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, K: k,
	}
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// set is the outcome of K untraced rounds plus one traced round.
type set struct {
	EndToEnd map[string]map[string]summary `json:"end_to_end"` // workload -> metric -> K repetitions
	PerLayer map[string]map[string]float64 `json:"per_layer"`  // workload -> metric, traced round
	Failed   map[string]float64            `json:"failed_frac"`
	Details  map[string]detail             `json:"details"`
	Problems []string                      `json:"problems,omitempty"`
}

// report is what the suite writes to out/report.json.
type report struct {
	Note        string      `json:"note"`
	Fingerprint fingerprint `json:"fingerprint"`
	Sets        []set       `json:"sets"`
}

const modelNote = "model unvalidated, no error figure: the repository holds no numeric reference results; every number here is host-side speed or memory, and simulated statistics are compared only against themselves"

// child runs one workload in a fresh process and parses its result line.
func child(ctx context.Context, w workload, seed uint64, trace bool) (result, detail, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, detail{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", w.Name, "--seed", fmt.Sprint(seed), "--seconds", "0", "--trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, detail{}, fmt.Errorf("%s: no result line (%v): %w", w.Name, runErr, err)
	}
	path, err := detailPath(w.Name, trace)
	if err != nil {
		return res, detail{}, err
	}
	var det detail
	buf, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(buf, &det)
	}
	return res, det, err
}

// runSet runs K rounds, each one fresh child per workload in round-robin
// order so a slow minute of a shared box hits every workload alike, then
// one traced round. Children run strictly one at a time.
func runSet(ctx context.Context, o suiteOpts) (set, error) {
	s := set{
		EndToEnd: map[string]map[string]summary{}, PerLayer: map[string]map[string]float64{},
		Failed: map[string]float64{}, Details: map[string]detail{},
	}
	samples := map[string]map[string][]float64{}
	attempted, failed := map[string]int{}, map[string]int{}
	for round := 0; round < o.K; round++ {
		for _, w := range workloads {
			start := time.Now()
			res, det, err := child(ctx, w, o.Seed, false)
			if err != nil {
				return s, err
			}
			fmt.Fprintf(os.Stderr, "round %d/%d %-17s %5.1fs  %d/%d failed\n", round+1, o.K, w.Name, time.Since(start).Seconds(), res.Failed, res.Attempted)
			if samples[w.Name] == nil {
				samples[w.Name] = map[string][]float64{}
			}
			for name, v := range res.Metrics {
				samples[w.Name][name] = append(samples[w.Name][name], v.Value)
			}
			attempted[w.Name] += res.Attempted
			failed[w.Name] += res.Failed
			if prev, ok := s.Details[w.Name]; ok && prev.Outputs != det.Outputs {
				s.Problems = append(s.Problems, fmt.Sprintf("%s: round %d produced different outputs than round 1", w.Name, round+1))
			}
			if _, ok := s.Details[w.Name]; !ok {
				s.Details[w.Name] = det
			}
			for _, n := range det.Notes {
				s.Problems = append(s.Problems, w.Name+": "+n)
			}
		}
	}
	for _, w := range workloads {
		s.EndToEnd[w.Name] = map[string]summary{}
		for name, xs := range samples[w.Name] {
			s.EndToEnd[w.Name][name] = summarize(xs)
		}
		s.Failed[w.Name] = float64(failed[w.Name]) / float64(attempted[w.Name])
	}
	if a, b := s.Details["campaign_local"], s.Details["campaign_fleet"]; a.Outputs != b.Outputs {
		s.Problems = append(s.Problems, "campaign_local and campaign_fleet produced different canonical JSONL")
	}
	for _, w := range workloads {
		start := time.Now()
		res, det, err := child(ctx, w, o.Seed, true)
		if err != nil {
			return s, err
		}
		fmt.Fprintf(os.Stderr, "traced     %-17s %5.1fs  %d/%d failed\n", w.Name, time.Since(start).Seconds(), res.Failed, res.Attempted)
		s.PerLayer[w.Name] = map[string]float64{}
		for name, v := range res.Metrics {
			s.PerLayer[w.Name][name] = v.Value
		}
		if res.Failed > 0 {
			s.Failed[w.Name] = math.Max(s.Failed[w.Name], float64(res.Failed)/float64(res.Attempted))
		}
		for _, n := range det.Notes {
			s.Problems = append(s.Problems, w.Name+" (traced): "+n)
		}
	}
	return s, nil
}

// printSet prints every metric by name with its unit.
func printSet(s set) {
	for _, w := range workloads {
		fmt.Printf("\n== %s (%s door, %d points, golden: %s) ==\n", w.Name, w.Door, s.Details[w.Name].Points, s.Details[w.Name].Golden)
		fmt.Printf("%-34s %-15s %14s %14s %14s %14s %3s\n", "end-to-end metric", "unit", "median", "min", "q1", "q3", "K")
		for _, def := range endToEnd {
			v := s.EndToEnd[w.Name][def.Name]
			name := def.Name
			if name == "point_ms_tail" {
				d := s.Details[w.Name]
				name = fmt.Sprintf("%s (p%g of %d)", name, d.TailPct, d.Samples)
			}
			fmt.Printf("%-34s %-15s %14.6g %14.6g %14.6g %14.6g %3d\n", name, def.Unit, v.Median, v.Min, v.Q1, v.Q3, v.N)
		}
		fmt.Printf("%-34s %-15s %14.6g\n", "failed_frac", "ratio", s.Failed[w.Name])
		fmt.Printf("%-34s %-15s %14s\n", "per-layer metric (traced run)", "unit", "value")
		for _, def := range perLayer {
			fmt.Printf("%-34s %-15s %14.6g\n", def.Name, def.Unit, s.PerLayer[w.Name][def.Name])
		}
	}
}

// disagreements compares two sets of the same code: every end-to-end
// median within its bound, every exact metric equal.
func disagreements(a, b set) []string {
	var out []string
	for _, w := range workloads {
		for _, def := range endToEnd {
			x, y := a.EndToEnd[w.Name][def.Name].Median, b.EndToEnd[w.Name][def.Name].Median
			if rel := math.Abs(y-x) / x; rel > def.Bound {
				out = append(out, fmt.Sprintf("%s %s: medians %.6g and %.6g differ by %.1f%% (bound %.0f%%)", w.Name, def.Name, x, y, rel*100, def.Bound*100))
			}
		}
		for _, def := range perLayer {
			if x, y := a.PerLayer[w.Name][def.Name], b.PerLayer[w.Name][def.Name]; def.Exact && x != y {
				out = append(out, fmt.Sprintf("%s %s: exact metric read %v then %v", w.Name, def.Name, x, y))
			}
		}
	}
	return out
}

func runSuite(ctx context.Context, o suiteOpts) error {
	rep := report{Note: modelNote, Fingerprint: machineFingerprint(o.Seed, o.K)}
	fmt.Println(modelNote)
	fmt.Printf("fingerprint: %+v\n", rep.Fingerprint)
	sets := 1
	if o.Selfcheck {
		sets = 2
	}
	var problems []string
	for i := 0; i < sets; i++ {
		s, err := runSet(ctx, o)
		if err != nil {
			return err
		}
		printSet(s)
		rep.Sets = append(rep.Sets, s)
		problems = append(problems, s.Problems...)
		for w, f := range s.Failed {
			if f > 0 {
				problems = append(problems, fmt.Sprintf("%s: failed_frac %.4g", w, f))
			}
		}
	}
	if o.Selfcheck {
		problems = append(problems, disagreements(rep.Sets[0], rep.Sets[1])...)
	}
	out, err := outDir()
	if err != nil {
		return err
	}
	path := filepath.Join(out, "report.json")
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Printf("\nreport: %s; traces: %s\n", path, filepath.Join(out, "trace-<workload>.json"))
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s):\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	return nil
}
