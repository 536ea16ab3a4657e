package traffic

import (
	"fmt"
	"sort"
)

// Phase is one segment of a workload schedule: a traffic pattern and an
// injection process that are active for Duration cycles, after which the
// next phase of the schedule takes over.
type Phase struct {
	Pattern Pattern
	Process Process
	// Duration is the number of cycles the phase is active. Zero means
	// "until the end of the run" and is only legal on the last phase of a
	// schedule.
	Duration int64
	// Label names the phase in digests and figure legends, e.g. "UN@0.30".
	Label string
	// TotalPackets is the number of packets a finite (burst) phase injects
	// across its job's nodes; zero for steady phases. It exists because a
	// Process sized for the whole network over-reports Total() when the
	// phase's job covers only a node subrange.
	TotalPackets int64
}

// Job binds one schedule of phases to a contiguous node range. Nodes
// outside every job's range stay idle (they never generate traffic).
type Job struct {
	// First and Last are the inclusive global node ids of the job's range.
	First, Last int
	// Phases is the job's schedule, in activation order.
	Phases []Phase

	// starts[i] is the first cycle of phase i (starts[0] == 0).
	starts []int64
	// end is the cycle the job falls silent (its last phase's duration
	// expired), or -1 for jobs that generate until the end of the run.
	end int64
	// base is the job's offset into the workload-global phase numbering.
	base int
}

// Nodes returns the number of nodes the job spans.
func (j *Job) Nodes() int { return j.Last - j.First + 1 }

// Start returns the first cycle of phase i.
func (j *Job) Start(i int) int64 { return j.starts[i] }

// Workload is a compiled multi-job phased workload over a network of a
// fixed node count: each job runs its own phase schedule over a disjoint
// node range. The zero value is not usable; build one with NewWorkload.
//
// Phase transitions are pure functions of the cycle number, so a workload
// is deterministic under any worker sharding of the engine.
type Workload struct {
	Jobs []Job

	jobOf  []int16 // node -> job index, -1 for idle nodes
	finite bool
	total  int64
	phases int
}

// NewWorkload compiles jobs over a nodes-node network. Jobs must have
// non-empty schedules and pairwise-disjoint node ranges inside [0, nodes);
// every phase except a schedule's last must have a positive duration.
func NewWorkload(nodes int, jobs ...Job) (*Workload, error) {
	if nodes < 1 {
		return nil, fmt.Errorf("traffic: workload over %d nodes", nodes)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("traffic: workload with no jobs")
	}
	w := &Workload{
		Jobs:   jobs,
		jobOf:  make([]int16, nodes),
		finite: true,
	}
	for i := range w.jobOf {
		w.jobOf[i] = -1
	}
	for ji := range w.Jobs {
		j := &w.Jobs[ji]
		if j.First < 0 || j.Last >= nodes || j.First > j.Last {
			return nil, fmt.Errorf("traffic: job %d node range [%d,%d] outside [0,%d)",
				ji, j.First, j.Last, nodes)
		}
		if len(j.Phases) == 0 {
			return nil, fmt.Errorf("traffic: job %d has no phases", ji)
		}
		for n := j.First; n <= j.Last; n++ {
			if w.jobOf[n] != -1 {
				return nil, fmt.Errorf("traffic: node %d belongs to jobs %d and %d",
					n, w.jobOf[n], ji)
			}
			w.jobOf[n] = int16(ji)
		}
		j.base = w.phases
		j.starts = make([]int64, len(j.Phases))
		j.end = -1
		var at int64
		for pi := range j.Phases {
			ph := &j.Phases[pi]
			if ph.Pattern == nil || ph.Process == nil {
				return nil, fmt.Errorf("traffic: job %d phase %d missing pattern or process", ji, pi)
			}
			j.starts[pi] = at
			last := pi == len(j.Phases)-1
			if ph.Duration < 0 || (!last && ph.Duration == 0) {
				return nil, fmt.Errorf("traffic: job %d phase %d duration %d (non-final phases need a positive duration)",
					ji, pi, ph.Duration)
			}
			at += ph.Duration
			if last && ph.Duration > 0 {
				// A bounded final phase ends the job: its nodes fall
				// silent afterwards instead of generating forever.
				j.end = at
			}
			if ph.Process.Finite() {
				if ph.TotalPackets <= 0 {
					return nil, fmt.Errorf("traffic: job %d phase %d is finite but declares no TotalPackets", ji, pi)
				}
				w.total += ph.TotalPackets
			} else {
				w.finite = false
			}
			w.phases++
		}
	}
	if !w.finite {
		w.total = -1
	}
	return w, nil
}

// NewSingleWorkload wraps the classic pattern+process pair as a one-job,
// one-phase workload over all nodes — the form every pre-workload
// configuration normalizes to.
func NewSingleWorkload(pattern Pattern, process Process, nodes int) (*Workload, error) {
	if pattern == nil || process == nil {
		return nil, fmt.Errorf("traffic: workload needs a pattern and a process")
	}
	ph := Phase{Pattern: pattern, Process: process, Label: pattern.Name()}
	if process.Finite() {
		ph.TotalPackets = process.Total()
	}
	return NewWorkload(nodes, Job{First: 0, Last: nodes - 1, Phases: []Phase{ph}})
}

// JobOf returns the index of the job node belongs to, or -1 for idle nodes.
func (w *Workload) JobOf(node int) int { return int(w.jobOf[node]) }

// Finite reports whether every phase of every job eventually stops
// generating — the run then ends when the network drains, like the classic
// burst experiment.
func (w *Workload) Finite() bool { return w.finite }

// Total returns the number of packets a finite workload generates in
// total, or -1 for workloads with any steady phase.
func (w *Workload) Total() int64 { return w.total }

// TotalPhases returns the number of phases across all jobs; phase ids in
// the workload-global numbering are in [0, TotalPhases).
func (w *Workload) TotalPhases() int { return w.phases }

// PhaseID returns the workload-global id of phase pi of job ji.
func (w *Workload) PhaseID(ji, pi int) int { return w.Jobs[ji].base + pi }

// PhaseAt returns the index (within job ji's schedule) of the phase active
// at cycle and whether the job is still generating (false once a bounded
// final phase has expired). The scan resumes from a caller-maintained
// cursor; cycles must be non-decreasing per cursor, which makes the
// amortized cost O(1), and the cursor is plain caller-owned state, so
// concurrent callers (one per engine worker) never share it.
func (w *Workload) PhaseAt(ji int, cycle int64, cursor *int32) (int, bool) {
	j := &w.Jobs[ji]
	cur := int(*cursor)
	for cur+1 < len(j.Phases) && cycle >= j.starts[cur+1] {
		cur++
	}
	*cursor = int32(cur)
	return cur, j.end < 0 || cycle < j.end
}

// LastChange returns the last cycle at which any job's active phase (or
// activity) changes; after it the set of generating phases is static.
func (w *Workload) LastChange() int64 {
	var last int64
	for ji := range w.Jobs {
		j := &w.Jobs[ji]
		if n := len(j.starts); j.starts[n-1] > last {
			last = j.starts[n-1]
		}
		if j.end > last {
			last = j.end
		}
	}
	return last
}

// NextChange returns the first cycle after cycle at which job ji's active
// phase (or its activity) changes, or -1 when nothing changes anymore.
// Injection hot paths use it to cache phase lookups between transitions.
// The starts ascend, so the search is binary: every node of a job asks at
// every one of its phase changes.
func (w *Workload) NextChange(ji int, cycle int64) int64 {
	j := &w.Jobs[ji]
	if i := sort.Search(len(j.starts), func(i int) bool { return j.starts[i] > cycle }); i < len(j.starts) {
		return j.starts[i]
	}
	if j.end > cycle {
		return j.end
	}
	return -1
}

// Name renders the workload as a compact human-readable label: phase
// labels joined by "→" within a job, jobs joined by "|" with their node
// ranges. A one-job one-phase workload is just its phase label, so classic
// configurations keep their familiar pattern names ("UN", "ADVG+8", ...).
func (w *Workload) Name() string {
	if len(w.Jobs) == 1 && len(w.Jobs[0].Phases) == 1 {
		return w.Jobs[0].Phases[0].Label
	}
	var out []byte
	for ji := range w.Jobs {
		j := &w.Jobs[ji]
		if ji > 0 {
			out = append(out, '|')
		}
		if len(w.Jobs) > 1 {
			out = append(out, fmt.Sprintf("%d-%d:", j.First, j.Last)...)
		}
		for pi := range j.Phases {
			if pi > 0 {
				out = append(out, "→"...)
			}
			out = append(out, j.Phases[pi].Label...)
		}
	}
	return string(out)
}
