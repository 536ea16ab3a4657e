package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// benchView is a cheap, allocation-free View for the routing
// microbenchmarks: flat per-(port, VC) occupancy and claimability arrays
// at paper scale, so the benchmarks measure the decision path instead of
// map lookups.
type benchView struct {
	p       *topology.P
	occ     []int
	blocked []bool
	cap     int
}

func newBenchView(p *topology.P) *benchView {
	n := p.Ports * 16
	return &benchView{p: p, occ: make([]int, n), blocked: make([]bool, n), cap: 32}
}

func (b *benchView) at(port, vc int) int           { return port*16 + vc }
func (b *benchView) CanClaim(port, vc, _ int) bool { return !b.blocked[b.at(port, vc)] }
func (b *benchView) CanStart(port, vc, size int) bool {
	return b.cap-b.occ[b.at(port, vc)] >= size
}
func (b *benchView) Occupancy(port, vc int) int { return b.occ[b.at(port, vc)] }
func (b *benchView) Capacity(int, int) int      { return b.cap }
func (b *benchView) MinState(port, vc, size int) (int, bool, bool) {
	return b.Occupancy(port, vc), b.CanClaim(port, vc, size), b.CanStart(port, vc, size)
}
func (b *benchView) OccClaim(port, vc, size int) (int, bool) {
	return b.Occupancy(port, vc), b.CanClaim(port, vc, size)
}
func (b *benchView) GlobalCongested(int) bool { return false }
func (b *benchView) CurrentQueue() (int, int) { return 24, 32 }
func (b *benchView) HeadFullyArrived() bool   { return true }
func (b *benchView) Faulty() bool             { return false }
func (b *benchView) LinkDown(int) bool        { return false }
func (b *benchView) RouteDown(int, int) bool  { return false }
func (b *benchView) LocalDown(int, int) bool  { return false }
func (b *benchView) PortDead(int) bool        { return false }

// blockOutput makes (port, all VCs) unclaimable and congested, arming the
// misrouting trigger against it.
func (b *benchView) blockOutput(port int) {
	for vc := 0; vc < 16; vc++ {
		b.blocked[b.at(port, vc)] = true
		b.occ[b.at(port, vc)] = b.cap
	}
}

// BenchmarkRouteHot measures the engine's per-cycle routing cost for every
// mechanism at paper scale (h=8): one plan build per head, then the
// per-retry replay of a blocked head whose minimal output is congested —
// the dominant evaluation at saturation. Fixed seeds; allocation counts
// are part of the regression surface (the replay must stay at 0 allocs/op).
func BenchmarkRouteHot(b *testing.B) {
	p := topology.MustNew(8)
	for spec := Minimal; spec <= OFAR; spec++ {
		b.Run(spec.String(), func(b *testing.B) {
			tab, err := NewTables(spec, Config{Topo: p, Threshold: 0.45, RemoteCandidates: 2})
			if err != nil {
				b.Fatal(err)
			}
			alg := tab.NewAlgorithm()
			v := newBenchView(p)
			r := rng.New(1, 1)
			// An inter-group packet at its source router, minimal output
			// blocked: the trigger evaluates the full candidate geometry.
			var st PacketState
			st.Init(p, 0, p.Nodes-1)
			router := int(st.SrcRouter)
			minPort, _, _ := minimalNext(p, &st, router)
			v.blockOutput(minPort)
			var plan Plan
			alg.BuildPlan(v, &st, router, 8, r, &plan)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = alg.RoutePlanned(v, &plan, 8, r)
			}
		})
	}
}

// BenchmarkBuildPlan measures the one-time plan construction per head,
// into a fresh Plan every op: a plan's first build must allocate nothing
// (CI fails any line with nonzero allocs/op).
func BenchmarkBuildPlan(b *testing.B) {
	p := topology.MustNew(8)
	for spec := Minimal; spec <= OFAR; spec++ {
		b.Run(spec.String(), func(b *testing.B) {
			tab, err := NewTables(spec, Config{Topo: p, Threshold: 0.45, RemoteCandidates: 2})
			if err != nil {
				b.Fatal(err)
			}
			alg := tab.NewAlgorithm()
			v := newBenchView(p)
			r := rng.New(1, 1)
			var st PacketState
			st.Init(p, 0, p.Nodes-1)
			st.InjDecided = true // keep Valiant/PB from re-drawing per build
			router := int(st.SrcRouter)
			var plan Plan
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan = Plan{}
				alg.BuildPlan(v, &st, router, 8, r, &plan)
			}
		})
	}
}
