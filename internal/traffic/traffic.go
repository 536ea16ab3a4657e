// Package traffic implements the synthetic traffic generators used in the
// paper's evaluation: uniform random (UN), adversarial-global (ADVG+N),
// adversarial-local (ADVL+N), the mixed ADVG+8/ADVL+1 pattern, and the two
// injection processes (steady Bernoulli and fixed-size bursts).
package traffic

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Pattern picks a destination node for a packet generated at src.
// Implementations must be safe for concurrent use as long as each caller
// passes its own PRNG, which is how the engine drives them.
type Pattern interface {
	// Dest returns the destination node for a packet from node src.
	Dest(src int, r *rng.PCG) int
	// Name returns a short identifier such as "UN" or "ADVG+8".
	Name() string
}

// Uniform sends every packet to a node chosen uniformly at random among all
// nodes except the source itself.
type Uniform struct {
	p *topology.P
}

// NewUniform returns the UN pattern over topology p.
func NewUniform(p *topology.P) *Uniform { return &Uniform{p: p} }

// Dest implements Pattern.
func (u *Uniform) Dest(src int, r *rng.PCG) int {
	d := r.Intn(u.p.Nodes - 1)
	if d >= src {
		d++
	}
	return d
}

// Name implements Pattern.
func (u *Uniform) Name() string { return "UN" }

// AdversarialGlobal is ADVG+N: every node in group i sends to a random node
// of group i+N (mod number of groups).
type AdversarialGlobal struct {
	p      *topology.P
	offset int
}

// NewAdversarialGlobal returns the ADVG+offset pattern. The offset must be
// in [1, groups-1].
func NewAdversarialGlobal(p *topology.P, offset int) (*AdversarialGlobal, error) {
	if offset < 1 || offset >= p.Groups {
		return nil, fmt.Errorf("traffic: ADVG offset %d out of range [1, %d)", offset, p.Groups)
	}
	return &AdversarialGlobal{p: p, offset: offset}, nil
}

// Dest implements Pattern.
func (a *AdversarialGlobal) Dest(src int, r *rng.PCG) int {
	g := a.p.GroupOf(a.p.RouterOfNode(src))
	tg := (g + a.offset) % a.p.Groups
	nodesPerGroup := a.p.RoutersPerGroup * a.p.H
	return tg*nodesPerGroup + r.Intn(nodesPerGroup)
}

// Name implements Pattern.
func (a *AdversarialGlobal) Name() string { return fmt.Sprintf("ADVG+%d", a.offset) }

// AdversarialLocal is ADVL+N: every node of router i sends to a random node
// of router i+N (mod 2h) in the same group.
type AdversarialLocal struct {
	p      *topology.P
	offset int
}

// NewAdversarialLocal returns the ADVL+offset pattern. The offset must be
// in [1, 2h).
func NewAdversarialLocal(p *topology.P, offset int) (*AdversarialLocal, error) {
	if offset < 1 || offset >= p.RoutersPerGroup {
		return nil, fmt.Errorf("traffic: ADVL offset %d out of range [1, %d)", offset, p.RoutersPerGroup)
	}
	return &AdversarialLocal{p: p, offset: offset}, nil
}

// Dest implements Pattern.
func (a *AdversarialLocal) Dest(src int, r *rng.PCG) int {
	router := a.p.RouterOfNode(src)
	g, idx := a.p.GroupOf(router), a.p.IndexInGroup(router)
	tj := (idx + a.offset) % a.p.RoutersPerGroup
	tr := a.p.RouterID(g, tj)
	return a.p.NodeID(tr, r.Intn(a.p.H))
}

// Name implements Pattern.
func (a *AdversarialLocal) Name() string { return fmt.Sprintf("ADVL+%d", a.offset) }

// Mix sends each packet through the Global pattern with probability
// GlobalFrac and through the Local pattern otherwise. The paper's Figures 6
// and 9 use Global = ADVG+8 and Local = ADVL+1 while sweeping GlobalFrac.
type Mix struct {
	Global     Pattern
	Local      Pattern
	GlobalFrac float64
}

// NewMix builds the combined adversarial pattern.
func NewMix(global, local Pattern, globalFrac float64) (*Mix, error) {
	if !(0 <= globalFrac && globalFrac <= 1) {
		return nil, fmt.Errorf("traffic: global fraction %v out of [0,1]", globalFrac)
	}
	return &Mix{Global: global, Local: local, GlobalFrac: globalFrac}, nil
}

// Dest implements Pattern.
func (m *Mix) Dest(src int, r *rng.PCG) int {
	if r.Bernoulli(m.GlobalFrac) {
		return m.Global.Dest(src, r)
	}
	return m.Local.Dest(src, r)
}

// Name implements Pattern.
func (m *Mix) Name() string {
	return fmt.Sprintf("%.0f%%%s/%s", m.GlobalFrac*100, m.Global.Name(), m.Local.Name())
}

// Process is the injection process at one node: it decides when new packets
// are generated.
type Process interface {
	// Next returns the first cycle in [from, limit) at which node src
	// generates a packet, or limit if there is none. It consumes exactly
	// the draws that one trial per cycle, from from through the returned
	// cycle, would make, so a caller that asks again from the cycle after
	// each event sees the stream a per-cycle caller would.
	Next(src int, from, limit int64, r *rng.PCG) int64
	// Consume records that node src actually injected a packet; finite
	// processes count down on it, steady ones ignore it.
	Consume(src int)
	// Finite reports whether the process eventually stops generating
	// (burst experiments); steady-state processes return false.
	Finite() bool
	// Total returns the number of packets a finite process generates in
	// total, or -1 for steady processes.
	Total() int64
}

// Bernoulli generates a packet with probability Load/PacketPhits each cycle
// so that the offered load equals Load phits/(node*cycle).
type Bernoulli struct {
	prob float64
}

// NewBernoulli returns a steady injection process with the given offered
// load in phits/(node*cycle) and packet size in phits.
func NewBernoulli(load float64, packetPhits int) (*Bernoulli, error) {
	if !(load >= 0) || packetPhits < 1 {
		return nil, fmt.Errorf("traffic: bad Bernoulli parameters load=%v size=%d", load, packetPhits)
	}
	return &Bernoulli{prob: load / float64(packetPhits)}, nil
}

// Next implements Process: one Bernoulli trial per cycle.
func (b *Bernoulli) Next(_ int, from, limit int64, r *rng.PCG) int64 {
	if from >= limit {
		return limit
	}
	return from + r.Trials(b.prob, limit-from)
}

// Generate reports whether one cycle's trial generates a packet: Next
// over a one-cycle window.
func (b *Bernoulli) Generate(_ int, _ int64, r *rng.PCG) bool { return r.Bernoulli(b.prob) }

// Consume implements Process; steady processes ignore it.
func (b *Bernoulli) Consume(int) {}

// Finite implements Process.
func (b *Bernoulli) Finite() bool { return false }

// Total implements Process.
func (b *Bernoulli) Total() int64 { return -1 }

// Burst generates exactly PacketsPerNode packets per node as fast as the
// injection queue accepts them, then stops. The paper's burst-consumption
// experiments send 1000 8-phit packets (VCT) or 89 80-phit packets (WH)
// per node.
type Burst struct {
	PacketsPerNode int
	remaining      []int32
}

// NewBurst returns a burst process for nodes nodes.
func NewBurst(packetsPerNode, nodes int) (*Burst, error) {
	if packetsPerNode < 0 || nodes < 1 {
		return nil, fmt.Errorf("traffic: bad burst parameters pkts=%d nodes=%d", packetsPerNode, nodes)
	}
	b := &Burst{PacketsPerNode: packetsPerNode, remaining: make([]int32, nodes)}
	for i := range b.remaining {
		b.remaining[i] = int32(packetsPerNode)
	}
	return b, nil
}

// Next implements Process without drawing: a node with packets left
// generates at once. The engine must call Consume after a successful
// injection; Next itself does not decrement, so a node whose queue is full
// asks again from the next cycle and loses no packet.
func (b *Burst) Next(src int, from, limit int64, _ *rng.PCG) int64 {
	if b.remaining[src] > 0 && from < limit {
		return from
	}
	return limit
}

// Consume records that node src actually injected one packet.
func (b *Burst) Consume(src int) { b.remaining[src]-- }

// Finite implements Process.
func (b *Burst) Finite() bool { return true }

// Total implements Process.
func (b *Burst) Total() int64 { return int64(b.PacketsPerNode) * int64(len(b.remaining)) }
