package traffic

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

func topo(t *testing.T, h int) *topology.P {
	t.Helper()
	p, err := topology.New(h)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUniformExcludesSelfAndCovers(t *testing.T) {
	p := topo(t, 2)
	u := NewUniform(p)
	r := rng.New(1, 1)
	const src = 5
	seen := make(map[int]bool)
	for i := 0; i < 20000; i++ {
		d := u.Dest(src, r)
		if d == src {
			t.Fatal("uniform chose the source node")
		}
		if d < 0 || d >= p.Nodes {
			t.Fatalf("destination %d out of range", d)
		}
		seen[d] = true
	}
	if len(seen) != p.Nodes-1 {
		t.Fatalf("uniform reached %d destinations, want %d", len(seen), p.Nodes-1)
	}
}

func TestUniformIsUniform(t *testing.T) {
	p := topo(t, 2)
	u := NewUniform(p)
	r := rng.New(3, 3)
	counts := make([]int, p.Nodes)
	const draws = 71 * 4000
	for i := 0; i < draws; i++ {
		counts[u.Dest(0, r)]++
	}
	want := float64(draws) / float64(p.Nodes-1)
	for n := 1; n < p.Nodes; n++ {
		if math.Abs(float64(counts[n])-want) > 6*math.Sqrt(want) {
			t.Errorf("node %d drawn %d times, want about %.0f", n, counts[n], want)
		}
	}
}

func TestAdversarialGlobalTargetsGroup(t *testing.T) {
	p := topo(t, 3)
	for _, off := range []int{1, 3, p.Groups - 1} {
		a, err := NewAdversarialGlobal(p, off)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(9, 1)
		for src := 0; src < p.Nodes; src += 7 {
			d := a.Dest(src, r)
			gs := p.GroupOf(p.RouterOfNode(src))
			gd := p.GroupOf(p.RouterOfNode(d))
			if gd != (gs+off)%p.Groups {
				t.Fatalf("ADVG+%d: src group %d dest group %d", off, gs, gd)
			}
		}
	}
}

func TestAdversarialGlobalRejectsBadOffset(t *testing.T) {
	p := topo(t, 2)
	for _, off := range []int{0, -1, p.Groups} {
		if _, err := NewAdversarialGlobal(p, off); err == nil {
			t.Errorf("ADVG offset %d accepted", off)
		}
	}
}

func TestAdversarialLocalTargetsRouter(t *testing.T) {
	p := topo(t, 3)
	a, err := NewAdversarialLocal(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4, 2)
	for src := 0; src < p.Nodes; src++ {
		d := a.Dest(src, r)
		rs, rd := p.RouterOfNode(src), p.RouterOfNode(d)
		if p.GroupOf(rs) != p.GroupOf(rd) {
			t.Fatalf("ADVL left the group: src %d dst %d", src, d)
		}
		if p.IndexInGroup(rd) != (p.IndexInGroup(rs)+1)%p.RoutersPerGroup {
			t.Fatalf("ADVL+1 wrong router: src idx %d dst idx %d",
				p.IndexInGroup(rs), p.IndexInGroup(rd))
		}
	}
}

func TestAdversarialLocalRejectsBadOffset(t *testing.T) {
	p := topo(t, 2)
	for _, off := range []int{0, p.RoutersPerGroup} {
		if _, err := NewAdversarialLocal(p, off); err == nil {
			t.Errorf("ADVL offset %d accepted", off)
		}
	}
}

func TestMixFractions(t *testing.T) {
	p := topo(t, 3)
	g, _ := NewAdversarialGlobal(p, p.H)
	l, _ := NewAdversarialLocal(p, 1)
	for _, frac := range []float64{0, 0.3, 1} {
		m, err := NewMix(g, l, frac)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(8, 8)
		const draws = 20000
		global := 0
		for i := 0; i < draws; i++ {
			src := r.Intn(p.Nodes)
			d := m.Dest(src, r)
			if p.GroupOf(p.RouterOfNode(d)) != p.GroupOf(p.RouterOfNode(src)) {
				global++
			}
		}
		got := float64(global) / draws
		if math.Abs(got-frac) > 0.02 {
			t.Errorf("mix frac %.2f measured %.3f", frac, got)
		}
	}
}

// TestMixComponentDistribution pins down where each side of the MIX split
// actually lands: every global draw must hit exactly group src+h (the
// ADVG+h component), every local draw exactly router idx+1 of the source
// group (ADVL+1), and the split itself must track the configured fraction.
func TestMixComponentDistribution(t *testing.T) {
	p := topo(t, 3)
	g, err := NewAdversarialGlobal(p, p.H)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewAdversarialLocal(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	const frac = 0.6
	m, err := NewMix(g, l, frac)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17, 3)
	const draws = 30000
	global := 0
	src := 5 * p.H // first node of router 5 (group 0, index 5)
	srcRouter := p.RouterOfNode(src)
	srcGroup, srcIdx := p.GroupOf(srcRouter), p.IndexInGroup(srcRouter)
	for i := 0; i < draws; i++ {
		d := m.Dest(src, r)
		dr := p.RouterOfNode(d)
		if p.GroupOf(dr) != srcGroup {
			global++
			if want := (srcGroup + p.H) % p.Groups; p.GroupOf(dr) != want {
				t.Fatalf("global draw landed in group %d, want %d", p.GroupOf(dr), want)
			}
		} else {
			if want := (srcIdx + 1) % p.RoutersPerGroup; p.IndexInGroup(dr) != want {
				t.Fatalf("local draw landed on router index %d, want %d", p.IndexInGroup(dr), want)
			}
		}
	}
	got := float64(global) / draws
	if got < frac-0.02 || got > frac+0.02 {
		t.Fatalf("global fraction %.3f, want about %.2f", got, frac)
	}
}

func TestMixRejectsBadFraction(t *testing.T) {
	p := topo(t, 2)
	g, _ := NewAdversarialGlobal(p, 1)
	l, _ := NewAdversarialLocal(p, 1)
	for _, frac := range []float64{1.5, -0.1, math.NaN(), math.Inf(1)} {
		if _, err := NewMix(g, l, frac); err == nil {
			t.Fatalf("mix fraction %v accepted", frac)
		}
	}
}

func TestBernoulliRateMatchesLoad(t *testing.T) {
	b, err := NewBernoulli(0.4, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2, 2)
	const cycles = 200000
	gen := 0
	for c := int64(0); c < cycles; c++ {
		if b.Generate(0, c, r) {
			gen += 8
		}
	}
	got := float64(gen) / cycles
	if math.Abs(got-0.4) > 0.01 {
		t.Fatalf("offered load %v, want 0.4", got)
	}
	if b.Finite() {
		t.Fatal("Bernoulli claims to be finite")
	}
}

func TestBernoulliRejectsBadParams(t *testing.T) {
	if _, err := NewBernoulli(-0.1, 8); err == nil {
		t.Fatal("negative load accepted")
	}
	if _, err := NewBernoulli(math.NaN(), 8); err == nil {
		t.Fatal("NaN load accepted")
	}
	if _, err := NewBernoulli(0.5, 0); err == nil {
		t.Fatal("zero packet size accepted")
	}
}

// TestBernoulliNextMatchesCycleTrials holds Next to one Generate per
// cycle: over random windows, the same first generating cycle (limit when
// none) and the same stream afterwards, and an empty window draws nothing.
func TestBernoulliNextMatchesCycleTrials(t *testing.T) {
	b, err := NewBernoulli(0.3, 8)
	if err != nil {
		t.Fatal(err)
	}
	pick := rng.New(4, 4)
	for i := range 2000 {
		from := int64(pick.Intn(1000))
		limit := from + int64(pick.Intn(40)) - 5
		got, want := rng.New(uint64(i), 1), rng.New(uint64(i), 1)
		next := b.Next(0, from, limit, got)
		c := from
		for c < limit && !b.Generate(0, c, want) {
			c++
		}
		if c > limit {
			c = limit
		}
		if next != c || *got != *want {
			t.Fatalf("Next(%d, %d) = %d, per-cycle trials give %d (or the streams differ)", from, limit, next, c)
		}
	}
}

// TestBurstCountsDown walks a burst through Next: a node with packets left
// generates at the window's first cycle, a full queue (no Consume) asks
// again from the next cycle and gets it, an exhausted node and an empty
// window give limit, and no call draws.
func TestBurstCountsDown(t *testing.T) {
	b, err := NewBurst(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Finite() || b.Total() != 6 {
		t.Fatalf("burst finite=%v total=%d", b.Finite(), b.Total())
	}
	r := rng.New(1, 1)
	before := *r
	pick := rng.New(2, 2)
	for range 100 {
		from := int64(pick.Intn(1000))
		limit := from + int64(pick.Intn(20)) - 5
		want := from
		if from >= limit {
			want = limit
		}
		if got := b.Next(0, from, limit, r); got != want {
			t.Fatalf("Next(%d, %d) = %d with packets left, want %d", from, limit, got, want)
		}
	}
	// A full queue: the event at cycle c injects nothing, so the next
	// appointment is c+1, until a packet goes in.
	c := int64(10)
	for retry := range 3 {
		if got := b.Next(0, c+1, 100, r); got != c+1 {
			t.Fatalf("retry %d after a full queue at cycle %d: next %d, want %d", retry, c, got, c+1)
		}
		c++
	}
	for i := range 3 {
		if got := b.Next(0, c, 100, r); got != c {
			t.Fatalf("packet %d: next %d, want %d", i, got, c)
		}
		b.Consume(0)
		c++
	}
	if got := b.Next(0, c, 100, r); got != 100 {
		t.Fatalf("exhausted node: next %d, want the limit 100", got)
	}
	if got := b.Next(1, c, 100, r); got != c {
		t.Fatalf("node 1 without sending: next %d, want %d", got, c)
	}
	if *r != before {
		t.Fatal("a burst drew from the stream")
	}
}
