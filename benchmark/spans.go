package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the recorder's epoch; Parent is the index of the span that caused
// it (-1 for a root) and Point the campaign index it belongs to (-1 when
// it belongs to none), so the spans of one point share an identifier.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Point  int32  `json:"point"`
}

// recorder keeps spans in a slice sized up front, so recording a span is
// an atomic add and two stores: no allocation, no lock. A nil recorder
// records nothing, which is how the untraced runs call the same code.
type recorder struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int32
	dropped atomic.Int32 // spans that did not fit; reported, never silent
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its index (-1 when not recording).
func (r *recorder) begin(name string, parent int32, point int) int32 {
	if r == nil {
		return -1
	}
	i := r.n.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Point: int32(point)}
	return i
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].End = int64(time.Since(r.epoch))
}

// add records a span whose interval is already known.
func (r *recorder) add(name string, start, end int64, parent int32, point int) int32 {
	id := r.begin(name, parent, point)
	if id >= 0 {
		r.spans[id].Start, r.spans[id].End = start, end
	}
	return id
}

// adopt makes parent the cause of child, for spans whose parent is only
// known after they ended.
func (r *recorder) adopt(child, parent int32) {
	if r != nil && child >= 0 {
		r.spans[child].Parent = parent
	}
}

// recorded returns the spans written so far.
func (r *recorder) recorded() []span {
	if r == nil {
		return nil
	}
	n := int(r.n.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	return r.spans[:n]
}

// spanTotals is the per-name digest of a trace.
type spanTotals struct {
	Count int   `json:"count"`    // spans of that name
	Total int64 `json:"total_ns"` // summed duration
	Self  int64 `json:"self_ns"`  // summed duration not covered by child spans
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children — two
// lanes working under one parent — are counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start // everything before this is already subtracted
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// totalsByName digests a trace per span name.
func totalsByName(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := make(map[string]spanTotals)
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += self[i]
		out[s.Name] = t
	}
	return out
}

// writeTrace writes the spans of a traced run, and where the time went by
// span name, when the run ends.
func writeTrace(path, workload string, seed uint64, r *recorder) error {
	doc := struct {
		Workload string                `json:"workload"`
		Seed     uint64                `json:"seed"`
		Dropped  int32                 `json:"dropped"`
		ByName   map[string]spanTotals `json:"by_name"`
		Spans    []span                `json:"spans"`
	}{workload, seed, r.dropped.Load(), totalsByName(r.recorded()), r.recorded()}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
