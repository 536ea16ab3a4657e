package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/traffic"
)

// TestCreditConservation: after a run drains completely, every credit
// counter has returned to its buffer's capacity and every buffer is empty.
func TestCreditConservation(t *testing.T) {
	cfg := testConfig(t, 2, core.OLM, 0)
	burst, err := traffic.NewBurst(15, cfg.Topo.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, nil, burst)
	cfg.Warmup, cfg.Measure = 0, 0
	cfg.MaxCycles = 300000
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlock {
		t.Fatal("burst deadlocked")
	}
	// Let stragglers on the links land.
	for i := 0; i < 3*cfg.LatGlobal; i++ {
		sim.stepBlock(1)
	}
	for i := range sim.routers {
		r := &sim.routers[i]
		for port := range r.out {
			op := &r.out[port]
			if op.link == nil {
				continue
			}
			for vc, c := range r.outCredits(port) {
				if c != op.capacity {
					t.Fatalf("router %d out(%d,%d): %d credits, capacity %d",
						r.id, port, vc, c, op.capacity)
				}
			}
			if op.activeVCs != 0 {
				t.Fatalf("router %d out %d: dangling transfers %b", r.id, port, op.activeVCs)
			}
		}
		for port := range r.in {
			for vc, buf := range r.inVCs(port) {
				if !buf.empty() {
					t.Fatalf("router %d in(%d,%d): residue after drain", r.id, port, vc)
				}
			}
		}
	}
}

// TestWormholePacketSpansRouters: with 40-phit packets and 8-phit buffers
// a blocked packet must hold buffers in several routers at once — the
// extended dependencies the paper discusses. Sample states mid-run and
// require at least one packet present in two or more buffers.
func TestWormholePacketSpansRouters(t *testing.T) {
	cfg := testConfig(t, 2, core.RLM, 0.5)
	cfg.Flow = WH
	cfg.PacketPhits = 40
	cfg.BufLocal, cfg.BufGlobal = 8, 48
	proc, err := traffic.NewBernoulli(0.5, 40)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, nil, proc)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spanning := 0
	for c := 0; c < 3000; c++ {
		sim.stepBlock(1)
		if c%100 != 0 {
			continue
		}
		seen := make(map[pktRef]int)
		for i := range sim.routers {
			r := &sim.routers[i]
			for port := range r.in {
				if r.in[port].link == nil {
					continue // injection queues hold whole packets
				}
				for _, buf := range r.inVCs(port) {
					for k := int32(0); k < buf.count; k++ {
						e := &buf.entries[(buf.head+k)%buf.entN]
						seen[e.pkt]++
					}
				}
			}
		}
		for _, n := range seen {
			if n >= 2 {
				spanning++
			}
		}
	}
	if spanning == 0 {
		t.Fatal("no wormhole packet ever spanned two routers")
	}
}

// TestPBPublishDelay: congestion bits a router publishes in cycle t are
// visible to its group's routing in cycle t+1 (the table of t+1's parity),
// not in cycle t — and each group's bits follow its own clock, so a group
// running ahead in a block neither sees nor disturbs another's.
func TestPBPublishDelay(t *testing.T) {
	cfg := testConfig(t, 2, core.PB, 0)
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.pbEnabled {
		t.Fatal("PB tables not enabled")
	}
	p := sim.topo
	// Fill router 0's first global channel (group 0) to capacity, and
	// publish it at cycle 5.
	r := &sim.routers[0]
	port := p.GlobalPortBase()
	k := p.GlobalChannelOfPort(p.IndexInGroup(0), port)
	clear(r.outCredits(port))
	r.publishPB(5)
	if !sim.pb[0][6&1][k] || sim.pb[0][5&1][k] {
		t.Fatalf("cycle 5 published into the wrong table: %v", sim.pb[0])
	}
	for _, tc := range []struct {
		router int
		cycle  int64
		want   bool
	}{
		{0, 5, false},                    // same cycle: the old table
		{0, 6, true},                     // next cycle: visible
		{p.RoutersPerGroup - 1, 6, true}, // every router of the group sees it
		{p.RoutersPerGroup, 6, false},    // group 1, same cycle: its own table
	} {
		rr := &sim.routers[tc.router]
		rr.parity = uint8(tc.cycle & 1)
		if got := rr.GlobalCongested(k); got != tc.want {
			t.Fatalf("router %d at cycle %d: GlobalCongested(%d) = %v, want %v", tc.router, tc.cycle, k, got, tc.want)
		}
	}
}

// TestInjectionQueueFIFO: packets from one node are delivered in
// generation order when they share source and destination (no reordering
// inside a VC chain under deterministic minimal routing).
func TestInjectionQueueFIFO(t *testing.T) {
	cfg := testConfig(t, 2, core.Minimal, 0)
	burst, err := traffic.NewBurst(6, cfg.Topo.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workload = single(t, cfg.Topo, fixedPair{}, burst)
	cfg.Warmup, cfg.Measure = 0, 0
	cfg.MaxCycles = 100000
	res := run(t, cfg)
	if res.Deadlock {
		t.Fatal("deadlock")
	}
	if res.Delivered != int64(6*cfg.Topo.Nodes) {
		t.Fatalf("delivered %d", res.Delivered)
	}
}

// fixedPair sends node n's traffic to node (n+7h) mod N, a fixed permutation.
type fixedPair struct{}

func (fixedPair) Dest(src int, _ *rng.PCG) int { return (src + 61) % 72 }
func (fixedPair) Name() string                 { return "fixedpair" }
