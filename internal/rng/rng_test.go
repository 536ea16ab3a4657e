package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42, 7)
	b := New(42, 7)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestStreamsDiffer(t *testing.T) {
	a := New(42, 1)
	b := New(42, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams 1 and 2 coincide on %d/1000 outputs", same)
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1, 0)
	b := New(2, 0)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincide on %d/1000 outputs", same)
	}
}

func TestIntnRange(t *testing.T) {
	p := New(7, 3)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := p.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1, 1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	p := New(99, 5)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[p.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	p := New(3, 9)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := p.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v, want about 0.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	p := New(5, 5)
	for i := 0; i < 100; i++ {
		if p.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !p.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	p := New(11, 2)
	const prob, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if p.Bernoulli(prob) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-prob) > 0.01 {
		t.Fatalf("Bernoulli(%.2f) rate %v", prob, got)
	}
}

// bernoulliRef is the trial Trials must reproduce, written out from its
// definition: Float64() < prob, with no draw at prob <= 0 or prob >= 1.
func bernoulliRef(p *PCG, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	return p.Float64() < prob
}

// checkTrials fails unless Trials(prob, n) returns the index of the first
// success among up to n reference trials on an identical generator and
// leaves the generator in the same state.
func checkTrials(t *testing.T, seed, stream uint64, prob float64, n int64) {
	t.Helper()
	got, want := New(seed, stream), New(seed, stream)
	i := got.Trials(prob, n)
	j := int64(0)
	for j < n && !bernoulliRef(want, prob) {
		j++
	}
	if i != j || *got != *want {
		t.Fatalf("Trials(%v (bits %#x), %d) on (%d, %d) = %d, state %+v; %d reference trials give %d, state %+v",
			prob, math.Float64bits(prob), n, seed, stream, i, *got, n, j, *want)
	}
}

// tieProbs returns the probabilities (x-1, x, x+1)/2^53 around the stream's
// next 53-bit draw x: the only inputs whose first trial needs its second
// output.
func tieProbs(seed, stream uint64) []float64 {
	x := New(seed, stream).Uint64() >> 11
	return []float64{float64(x-1) / (1 << 53), float64(x) / (1 << 53), float64(x+1) / (1 << 53)}
}

func TestTrialsMatchesBernoulli(t *testing.T) {
	probs := []float64{0, -0.5, 1, 1.5, 0.3, 1.0 / 8, 0.05 / 8, 0.0005 / 8,
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
	for seed := uint64(0); seed < 4; seed++ {
		for _, prob := range append(probs, tieProbs(seed, 7)...) {
			for _, n := range []int64{-3, 0, 1, 2, 17, 4096} {
				checkTrials(t, seed, 7, prob, n)
			}
		}
	}
	// Bernoulli is one trial.
	p, q := New(9, 9), New(9, 9)
	for i := range 1000 {
		prob := float64(i%11) / 10
		if p.Bernoulli(prob) != bernoulliRef(q, prob) || *p != *q {
			t.Fatalf("Bernoulli(%v) departs from its definition at call %d", prob, i)
		}
	}
}

// FuzzTrials holds Trials to n reference Bernoulli trials for any seed,
// stream, probability (as raw float64 bits, so NaNs, infinities and
// subnormals come up) and n <= 4096: the same index and the same state.
func FuzzTrials(f *testing.F) {
	for _, prob := range []float64{0, 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.Nextafter(1, 0), 0.3} {
		f.Add(uint64(1), uint64(2), math.Float64bits(prob), uint16(64))
	}
	for _, prob := range tieProbs(5, 3) {
		f.Add(uint64(5), uint64(3), math.Float64bits(prob), uint16(1))
	}
	f.Fuzz(func(t *testing.T, seed, stream, bits uint64, n uint16) {
		checkTrials(t, seed, stream, math.Float64frombits(bits), int64(n%4097))
	})
}

func TestSplitIndependence(t *testing.T) {
	p := New(123, 4)
	q := p.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if p.Uint32() == q.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream coincides on %d/1000 outputs", same)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var p PCG
	// The zero value must not hang or panic; statistical quality is not
	// required of it.
	_ = p.Uint32()
	_ = p.Intn(10)
}

func BenchmarkUint32(b *testing.B) {
	p := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = p.Uint32()
	}
}

func BenchmarkTrials(b *testing.B) {
	p := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = p.Trials(0.05/8, 1000)
	}
}

func BenchmarkIntn(b *testing.B) {
	p := New(1, 1)
	for i := 0; i < b.N; i++ {
		_ = p.Intn(129)
	}
}
