package sweep

import (
	"fmt"
	"io"
	"math"
	"strings"

	dragonfly "repro"
)

// Metric selects which y-value of a Point a rendering uses.
type Metric int

// Metrics the paper's figures plot.
const (
	AcceptedLoad     Metric = iota // phits/(node·cycle)
	TotalLatency                   // cycles, generation -> delivery
	NetworkLatency                 // cycles, injection -> delivery
	ConsumptionTime                // kilocycles to drain a burst
	FaultDropRate                  // fault drops per generated packet
	DropSuppressRate               // fault drops + suppressed injections per generated packet
)

// String names the metric as the paper's axis labels do.
func (m Metric) String() string {
	switch m {
	case AcceptedLoad:
		return "Accepted load (phits/(node*cycle))"
	case TotalLatency:
		return "Average latency (cycles)"
	case NetworkLatency:
		return "Average network latency (cycles)"
	case ConsumptionTime:
		return "Burst consumption time (1000 cycles)"
	case FaultDropRate:
		return "Fault drops per generated packet"
	case DropSuppressRate:
		return "Fault drops + suppressed injections per generated packet"
	}
	return "unknown"
}

// value extracts the metric from one point. A failed point yields NaN,
// never a plausible-looking zero: gnuplot treats NaN as missing data, so
// a .dat file re-plotted long after the run still shows the gap.
func (m Metric) value(p Point) float64 {
	if p.Err != nil {
		return math.NaN()
	}
	switch m {
	case AcceptedLoad:
		return p.Result.AcceptedLoad
	case TotalLatency:
		return p.Result.AvgTotalLatency
	case NetworkLatency:
		return p.Result.AvgNetworkLatency
	case ConsumptionTime:
		return float64(p.Result.ConsumptionCycles) / 1000
	case FaultDropRate:
		if p.Result.Generated == 0 {
			return 0
		}
		return float64(p.Result.FaultDrops) / float64(p.Result.Generated)
	case DropSuppressRate:
		if p.Result.Generated == 0 {
			return 0
		}
		return float64(p.Result.FaultDrops+p.Result.Suppressed) / float64(p.Result.Generated)
	}
	return math.NaN()
}

// WriteDAT renders the series as a gnuplot-style data file: one block of
// "x y" lines per series, separated by blank lines and labeled with
// comment headers.
func WriteDAT(w io.Writer, xLabel string, metric Metric, series []Series) error {
	if _, err := fmt.Fprintf(w, "# x: %s\n# y: %s\n", xLabel, metric); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "\n# series: %s\n", s.Name); err != nil {
			return err
		}
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%g\t%g\n", p.X, metric.value(p)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteMarkdown renders the series as one markdown table: rows are x
// values, one column per series.
func WriteMarkdown(w io.Writer, xLabel string, metric Metric, series []Series) error {
	if len(series) == 0 {
		return nil
	}
	var b strings.Builder
	b.WriteString("| " + xLabel + " |")
	for _, s := range series {
		b.WriteString(" " + s.Name + " |")
	}
	b.WriteString("\n|---|")
	for range series {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for i := range series[0].Points {
		fmt.Fprintf(&b, "| %g |", series[0].Points[i].X)
		for _, s := range series {
			switch {
			case i >= len(s.Points):
				b.WriteString(" - |")
			case s.Points[i].Err != nil:
				b.WriteString(" error |")
			case s.Points[i].Result.Deadlock:
				fmt.Fprintf(&b, " %.4g (deadlock!) |", metric.value(s.Points[i]))
			default:
				fmt.Fprintf(&b, " %.4g |", metric.value(s.Points[i]))
			}
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TimelineMetric selects the per-window y-value of a timeline rendering.
type TimelineMetric int

// Metrics of the transient (time-series) figures.
const (
	WindowAccepted TimelineMetric = iota // phits/(node·cycle) per window
	WindowLatency                        // average latency of the window's deliveries
	WindowP99                            // p99 latency of the window's deliveries
)

// String names the metric as an axis label.
func (m TimelineMetric) String() string {
	switch m {
	case WindowAccepted:
		return "Accepted load (phits/(node*cycle))"
	case WindowLatency:
		return "Average latency (cycles)"
	case WindowP99:
		return "p99 latency (cycles)"
	}
	return "unknown"
}

func (m TimelineMetric) value(w dragonfly.Window) float64 {
	switch m {
	case WindowAccepted:
		return w.AcceptedLoad
	case WindowLatency:
		return w.AvgTotalLatency
	case WindowP99:
		return w.P99Latency
	}
	return math.NaN()
}

// TimelineSeries is one curve of a transient figure: a run's timeline
// under a series label (typically the mechanism name).
type TimelineSeries struct {
	Name     string
	Timeline *dragonfly.Timeline
}

// WriteTimelineDAT renders per-window time series as a gnuplot-style data
// file: one block per series, x = the window's midpoint cycle. Series
// without a timeline (failed points) render as empty blocks.
func WriteTimelineDAT(w io.Writer, metric TimelineMetric, series []TimelineSeries) error {
	if _, err := fmt.Fprintf(w, "# x: Cycle\n# y: %s\n", metric); err != nil {
		return err
	}
	for _, s := range series {
		if _, err := fmt.Fprintf(w, "\n# series: %s\n", s.Name); err != nil {
			return err
		}
		if s.Timeline == nil {
			continue
		}
		for _, win := range s.Timeline.Windows {
			mid := float64(win.Start+win.End) / 2
			if _, err := fmt.Fprintf(w, "%g\t%g\n", mid, metric.value(win)); err != nil {
				return err
			}
		}
	}
	return nil
}
