package stats

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42, 43)
	b := NewRNG(42, 43)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("equal seeds must produce equal streams")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(1, 1)
	c1 := parent.Split()
	c2 := parent.Split()
	// Children of the same parent must differ from each other and from a
	// replayed parent.
	replay := NewRNG(1, 1)
	same1, same2, same12 := 0, 0, 0
	for i := 0; i < 64; i++ {
		v1, v2, vp := c1.Uint64(), c2.Uint64(), replay.Uint64()
		if v1 == vp {
			same1++
		}
		if v2 == vp {
			same2++
		}
		if v1 == v2 {
			same12++
		}
	}
	if same1 > 0 || same2 > 0 || same12 > 0 {
		t.Errorf("split streams collide: %d %d %d", same1, same2, same12)
	}
}

func TestRNGAtSplitAlignment(t *testing.T) {
	// At(i) must equal the (i+1)-th Split child of a fresh stream with the
	// same seeds: the indexed jump reproduces the sequential derivation, so
	// a parallel fan-out over At replays a serial Split loop exactly.
	splitter := NewRNG(42, 99)
	for i := 0; i < 20; i++ {
		want := splitter.Split()
		got := NewRNG(42, 99).At(i)
		for j := 0; j < 50; j++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("At(%d) diverges from split child %d at draw %d: %x != %x", i, i+1, j, g, w)
			}
		}
	}
}

func TestRNGAtPositionIndependence(t *testing.T) {
	// At must depend only on the seed identity, not on how much the parent
	// stream has been consumed or split.
	fresh := NewRNG(7, 8)
	used := NewRNG(7, 8)
	for i := 0; i < 1000; i++ {
		used.Uint64()
	}
	a, b := fresh.At(5), used.At(5)
	for j := 0; j < 50; j++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("At must not depend on the parent's position")
		}
	}
}

func TestRNGAtStability(t *testing.T) {
	// The indexed derivation is part of the reproducibility contract: these
	// first-draw values must never change across releases, or every
	// fixed-seed parallel experiment golden silently shifts.
	r := NewRNG(1, 2)
	golden := map[int]uint64{
		0: r.At(0).Uint64(),
		1: r.At(1).Uint64(),
		7: r.At(7).Uint64(),
	}
	for i, want := range golden {
		if got := NewRNG(1, 2).At(i).Uint64(); got != want {
			t.Errorf("At(%d) first draw %x, want %x", i, got, want)
		}
	}
	// Lock the derivation itself (seed mixing), independent of this run.
	if got := NewRNG(0, 0).At(0).s1; got != mix64(0^0x9e3779b97f4a7c15) {
		t.Errorf("At(0) seed derivation changed: s1 = %x", got)
	}
}

func TestRNGAtIndependence(t *testing.T) {
	// Statistical independence across indexed substreams: pairwise distinct
	// outputs, and the pooled first draws spread uniformly over [0, 1).
	const streams = 256
	base := NewRNG(1234, 5678)
	firsts := make([]float64, streams)
	seen := make(map[uint64]bool, streams*8)
	for i := 0; i < streams; i++ {
		r := base.At(i)
		firsts[i] = r.Float64()
		for j := 0; j < 8; j++ {
			v := r.Uint64()
			if seen[v] {
				t.Fatalf("collision across substreams at index %d", i)
			}
			seen[v] = true
		}
	}
	// Chi-squared uniformity over 16 bins: 99.9th percentile of chi2(15)
	// is ~37.7; far beyond that means the jump correlates nearby indices.
	bins := make([]int, 16)
	for _, f := range firsts {
		bins[int(f*16)]++
	}
	expected := float64(streams) / 16
	chi2 := 0.0
	for _, c := range bins {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	if chi2 > 37.7 {
		t.Errorf("first draws of indexed substreams non-uniform: chi2 = %g", chi2)
	}
	// Serial correlation between adjacent indices' first draws.
	mean := 0.0
	for _, f := range firsts {
		mean += f
	}
	mean /= streams
	num, den := 0.0, 0.0
	for i := 0; i < streams-1; i++ {
		num += (firsts[i] - mean) * (firsts[i+1] - mean)
	}
	for _, f := range firsts {
		den += (f - mean) * (f - mean)
	}
	if r1 := num / den; r1 < -0.25 || r1 > 0.25 {
		t.Errorf("adjacent indexed substreams correlate: r1 = %g", r1)
	}
}

func TestRNGAtNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At(-1) must panic")
		}
	}()
	NewRNG(1, 1).At(-1)
}

func TestRNGSplitDeterminism(t *testing.T) {
	a := NewRNG(5, 6).Split()
	b := NewRNG(5, 6).Split()
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("splitting must be deterministic")
		}
	}
}

func TestBernoulliBounds(t *testing.T) {
	r := NewRNG(2, 3)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) must be false")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) must be true")
		}
	}
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bernoulli(0.3) hit fraction %g", frac)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRNG(8, 9)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		got := r.SampleWithoutReplacement(n, k)
		if len(got) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacementFull(t *testing.T) {
	r := NewRNG(10, 11)
	got := r.SampleWithoutReplacement(6, 6)
	seen := make(map[int]bool)
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 6 {
		t.Errorf("k=n sample must be a permutation, got %v", got)
	}
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Each element of [0,10) should appear in a 3-sample with prob 0.3.
	r := NewRNG(12, 13)
	counts := make([]int, 10)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleWithoutReplacement(10, 3) {
			counts[v]++
		}
	}
	for v, c := range counts {
		frac := float64(c) / trials
		if frac < 0.27 || frac > 0.33 {
			t.Errorf("element %d sampled with frequency %g, want ~0.3", v, frac)
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k > n must panic")
		}
	}()
	NewRNG(1, 1).SampleWithoutReplacement(3, 4)
}

// TestRNGMatchesRandV2 pins RNG to math/rand/v2 draw for draw: RNG runs
// rand.Rand's per-draw algorithms against the concrete PCG, so any drift
// (a changed reduction, float conversion or shuffle order) would silently
// move every fixed-seed trajectory in the repository. The n values cover
// 1, powers of two (the mask path), small odd values, and values near
// 2^63, where the Lemire rejection loop runs often. NormFloat64 and Perm
// go through a rand.Rand over the same PCG; interleaving them shows that
// all methods advance one shared state.
func TestRNGMatchesRandV2(t *testing.T) {
	ns := []int{1, 2, 3, 5, 7, 8, 64, 100, 101, 1 << 20, 1<<31 - 1, 1 << 40,
		1<<62 + 1, 1<<62 + 12345, 3 << 61, 1<<63 - 1, 1<<63 - 12345}
	probs := []float64{-1, 0, 1e-9, 0.1, 0.5, 0.999, 1, 2}
	for seed := uint64(0); seed < 200; seed++ {
		s1, s2 := seed*0x9e3779b97f4a7c15, ^seed
		got, want := NewRNG(s1, s2), rand.New(rand.NewPCG(s1, s2))
		for step := 0; step < 40; step++ {
			n := ns[(int(seed)+step)%len(ns)]
			if g, w := got.IntN(n), want.IntN(n); g != w {
				t.Fatalf("seed %d step %d: IntN(%d) = %d, rand/v2 gives %d", seed, step, n, g, w)
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d step %d: Uint64 = %x, rand/v2 gives %x", seed, step, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d step %d: Float64 = %v, rand/v2 gives %v", seed, step, g, w)
			}
			p := probs[step%len(probs)]
			wb := p >= 1 || (p > 0 && want.Float64() < p)
			if g := got.Bernoulli(p); g != wb {
				t.Fatalf("seed %d step %d: Bernoulli(%v) = %v, rand/v2 gives %v", seed, step, p, g, wb)
			}
			m := step % 13
			ga, wa := make([]int, m), make([]int, m)
			for i := range ga {
				ga[i], wa[i] = i, i
			}
			got.Shuffle(m, func(i, j int) { ga[i], ga[j] = ga[j], ga[i] })
			want.Shuffle(m, func(i, j int) { wa[i], wa[j] = wa[j], wa[i] })
			if !slices.Equal(ga, wa) {
				t.Fatalf("seed %d step %d: Shuffle(%d) = %v, rand/v2 gives %v", seed, step, m, ga, wa)
			}
			if step%5 == 0 {
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("seed %d step %d: NormFloat64 = %v, rand/v2 gives %v", seed, step, g, w)
				}
				if g, w := got.Perm(m), want.Perm(m); !slices.Equal(g, w) {
					t.Fatalf("seed %d step %d: Perm(%d) = %v, rand/v2 gives %v", seed, step, m, g, w)
				}
			}
		}
	}
}
