// Package exp is the experiment orchestrator: it executes a declarative
// campaign — an ordered list of dragonfly.Config points produced by
// composable matrix builders — on a bounded worker pool with deterministic
// per-point seeding, structured progress reporting, streaming JSONL result
// output, cooperative cancellation and an optional content-addressed
// result cache keyed on the canonical configuration and the engine's
// results version, so re-runs and resumed campaigns skip completed points.
//
// Each point is an independent, deterministic simulation, so campaign
// results are bit-identical for any pool size; the across-point
// parallelism here composes with the engine's intra-simulation workers and
// is the better use of cores for the common small-h points.
//
// Life of a point. However a point arrives, it becomes a result in one
// place: Resolve (content key → store lookup → run → persist on success;
// a failed persist never fails the point; no store means always-miss).
// The three front doors differ only in what they wrap around it. Run,
// the in-process door, feeds Resolve from a channel-fed pool with
// Options.Cache as the store and Options.Run as the run, and reports a
// broken cache once, campaign-level. The srv.Server coordinator runs
// each accepted campaign through Run too, with a run that adds in-flight
// dedup (Flights) around a second Resolve on its Store whose run is a
// round trip through the lease queue. A srv.Worker calls Resolve on its
// own optional Store for every point it leases, running the engine under
// the lease's context. Server and worker log persist errors. NewRecord
// is likewise the one Outcome → Record conversion behind JSONL lines,
// SSE events and the results listing.
//
//	points := exp.NewMatrix(base).
//		Mechanisms(dragonfly.RLM, dragonfly.OLM).
//		Loads(0.1, 0.5, 0.9).
//		Points()
//	outs, err := exp.Run(ctx, exp.Campaign{Name: "fig5", Points: points},
//		exp.Options{Workers: 8, Cache: cache, JSONL: w})
package exp

import (
	"errors"
	"fmt"

	dragonfly "repro"
)

// Point is one experiment of a campaign: a full simulation configuration
// plus its place in a figure (points sharing a Series name form one curve,
// X is the point's x-axis value). The JSON layout is the service's wire
// format for a submitted point and matches Record's field names.
type Point struct {
	Series string           `json:"series"`
	X      float64          `json:"x"`
	Config dragonfly.Config `json:"config"`
}

// Campaign is an ordered list of points. The order is the order outcomes
// are returned in; execution order is whatever the pool gets to first.
type Campaign struct {
	Name   string
	Points []Point
}

// Outcome is the orchestrator's verdict on one point. Per-point simulation
// failures land in Err (never in Run's campaign-level error), so one bad
// point cannot hide the rest of a figure.
type Outcome struct {
	Index  int
	Point  Point
	Result dragonfly.Result
	// Cached reports the result came from the cache; no simulation ran.
	Cached bool
	// Seconds is the wall-clock time spent producing the result
	// (zero-ish for cache hits).
	Seconds float64
	Err     error
}

// label names an outcome's point for error and progress messages.
func (o *Outcome) label() string {
	return fmt.Sprintf("point %d (%s x=%g)", o.Index, o.Point.Series, o.Point.X)
}

// PointErrors joins every per-point failure of a campaign into one error,
// or returns nil if all points succeeded. CLIs use it to surface point
// failures uniformly and exit non-zero after reporting what did complete.
func PointErrors(outs []Outcome) error {
	var errs []error
	for i := range outs {
		if outs[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", outs[i].label(), outs[i].Err))
		}
	}
	return errors.Join(errs...)
}
