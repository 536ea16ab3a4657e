package exp

import (
	"strings"

	dragonfly "repro"
)

// Matrix builds campaign point lists as the cross product of axes over a
// base configuration. Axes are applied in the order they were added, the
// first axis varying slowest, so a mechanisms×loads matrix yields all
// loads of the first mechanism, then all loads of the second — the layout
// figure code expects. Labeled axes contribute to each point's Series
// name; X axes provide the x value. The builder is append-only and cheap:
// nothing is simulated until the points reach Run.
type Matrix struct {
	base   dragonfly.Config
	axes   []matrixAxis
	filter func(dragonfly.Config) bool
}

type matrixAxis struct {
	n     int
	label func(i int) string           // nil: not part of Series
	x     func(i int) float64          // nil: not the x axis
	apply func(*dragonfly.Config, int) // mutates the point's config
}

// NewMatrix starts a matrix over base; every generated point begins as a
// copy of it.
func NewMatrix(base dragonfly.Config) *Matrix {
	return &Matrix{base: base}
}

// Axis appends a labeled series axis of n variants. label(i) names
// variant i in the point's Series; apply(cfg, i) specializes the config.
func (m *Matrix) Axis(n int, label func(int) string, apply func(*dragonfly.Config, int)) *Matrix {
	m.axes = append(m.axes, matrixAxis{n: n, label: label, apply: apply})
	return m
}

// XAxis appends the x axis: one variant per value in xs, recorded as the
// point's X and applied to the config. A matrix normally has exactly one
// XAxis; with several, the last one added wins the X slot.
func (m *Matrix) XAxis(xs []float64, apply func(*dragonfly.Config, float64)) *Matrix {
	vals := append([]float64(nil), xs...)
	m.axes = append(m.axes, matrixAxis{
		n:     len(vals),
		x:     func(i int) float64 { return vals[i] },
		apply: func(c *dragonfly.Config, i int) { apply(c, vals[i]) },
	})
	return m
}

// Filter drops generated points keep rejects (e.g. mechanism/flow-control
// combinations the engine refuses).
func (m *Matrix) Filter(keep func(dragonfly.Config) bool) *Matrix {
	m.filter = keep
	return m
}

// Mechanisms appends a series axis over routing mechanisms.
func (m *Matrix) Mechanisms(ms ...dragonfly.Mechanism) *Matrix {
	vals := append([]dragonfly.Mechanism(nil), ms...)
	return m.Axis(len(vals),
		func(i int) string { return vals[i].String() },
		func(c *dragonfly.Config, i int) { c.Mechanism = vals[i] })
}

// Flows appends a series axis over flow controls. PacketPhits is left
// untouched: when the base (or another axis) pinned no size, the config's
// own defaulting picks the paper's per-flow packet size (8 for VCT, 80
// for WH) at run time.
func (m *Matrix) Flows(fs ...dragonfly.FlowControl) *Matrix {
	vals := append([]dragonfly.FlowControl(nil), fs...)
	return m.Axis(len(vals),
		func(i int) string { return vals[i].String() },
		func(c *dragonfly.Config, i int) { c.FlowControl = vals[i] })
}

// Loads appends the offered-load x axis (and clears BurstPackets, since a
// load sweep is a steady-state experiment).
func (m *Matrix) Loads(loads ...float64) *Matrix {
	return m.XAxis(loads, func(c *dragonfly.Config, x float64) {
		c.Load = x
		c.BurstPackets = 0
	})
}

// GlobalPercents appends the traffic-mix x axis: each point runs the
// ADVG+h/ADVL+1 MIX pattern with the given percentage of global traffic.
func (m *Matrix) GlobalPercents(pcts ...float64) *Matrix {
	return m.XAxis(pcts, func(c *dragonfly.Config, x float64) {
		c.Traffic = dragonfly.Traffic{Kind: dragonfly.MIX, GlobalPercent: x}
	})
}

// Points generates the cross product.
func (m *Matrix) Points() []Point {
	if len(m.axes) == 0 {
		return nil
	}
	total := 1
	for _, a := range m.axes {
		total *= a.n
	}
	pts := make([]Point, 0, total)
	idx := make([]int, len(m.axes))
	for n := 0; n < total; n++ {
		p := Point{Config: m.base}
		var labels []string
		for ai, a := range m.axes {
			i := idx[ai]
			a.apply(&p.Config, i)
			if a.label != nil {
				labels = append(labels, a.label(i))
			}
			if a.x != nil {
				p.X = a.x(i)
			}
		}
		p.Series = strings.Join(labels, " ")
		if m.filter == nil || m.filter(p.Config) {
			pts = append(pts, p)
		}
		for ai := len(m.axes) - 1; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < m.axes[ai].n {
				break
			}
			idx[ai] = 0
		}
	}
	return pts
}

// Campaign wraps the generated points under a name.
func (m *Matrix) Campaign(name string) Campaign {
	return Campaign{Name: name, Points: m.Points()}
}
