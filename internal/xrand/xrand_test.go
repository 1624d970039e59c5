package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for distinct seeds collided %d/64 times", same)
	}
}

func TestSplitKeyed(t *testing.T) {
	a := Split(7, 1, 2, 3)
	b := Split(7, 1, 2, 3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("identical key tuples must yield identical streams")
	}
	c := Split(7, 1, 2, 4)
	d := Split(7, 1, 2, 3)
	if c.Uint64() == d.Uint64() {
		t.Fatal("distinct key tuples should (overwhelmingly) differ")
	}
}

func TestSplitKeyOrderMatters(t *testing.T) {
	if Split(9, 1, 2).Uint64() == Split(9, 2, 1).Uint64() {
		t.Fatal("key order should change the stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(5)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(11)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[s.Intn(7)]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(7) value %d count %d outside plausible band", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestCoinExtremes(t *testing.T) {
	s := New(13)
	for i := 0; i < 100; i++ {
		if s.Coin(0) {
			t.Fatal("Coin(0) fired")
		}
		if !s.Coin(1) {
			t.Fatal("Coin(1) failed to fire")
		}
		if s.Coin(-0.5) {
			t.Fatal("Coin(-0.5) fired")
		}
		if !s.Coin(1.5) {
			t.Fatal("Coin(1.5) failed to fire")
		}
	}
}

func TestCoinRate(t *testing.T) {
	s := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Coin(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Coin(0.3) empirical rate %v", rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid entry %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestExpFloat64Positive(t *testing.T) {
	s := New(23)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		e := s.ExpFloat64()
		if e < 0 || math.IsInf(e, 0) || math.IsNaN(e) {
			t.Fatalf("bad exponential draw %v", e)
		}
		sum += e
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v too far from 1", mean)
	}
}

func TestCoinAtPureFunction(t *testing.T) {
	// CoinAt must be referentially transparent: same args, same outcome,
	// regardless of call ordering or interleaving.
	first := make([]bool, 1000)
	for i := range first {
		first[i] = CoinAt(0.5, 99, uint64(i), 7)
	}
	for i := len(first) - 1; i >= 0; i-- {
		if CoinAt(0.5, 99, uint64(i), 7) != first[i] {
			t.Fatalf("CoinAt not deterministic at key %d", i)
		}
	}
}

func TestCoinAtRate(t *testing.T) {
	hits := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if CoinAt(0.2, 1234, uint64(i)) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.2) > 0.01 {
		t.Fatalf("CoinAt(0.2) empirical rate %v", rate)
	}
}

// TestCoinsMatchCoinAt pins the prefix form to CoinAt — and both to the
// first draw of the Split stream — over random seeds, prefixes of zero to
// four keys and last keys, at probabilities inside (0, 1), at and beyond
// both ends, and NaN.
func TestCoinsMatchCoinAt(t *testing.T) {
	rng := New(41)
	ps := []float64{math.Inf(-1), -1, 0, 1e-300, 0.25, 0.5, 0.999, math.Nextafter(1, 0), 1, 2, math.Inf(1), math.NaN()}
	for trial := 0; trial < 2000; trial++ {
		seed := rng.Uint64()
		prefix := make([]uint64, trial%5)
		for i := range prefix {
			prefix[i] = rng.Uint64() >> (rng.Intn(4) * 16) // small keys too
		}
		p := rng.Float64()
		if trial%3 == 0 {
			p = ps[rng.Intn(len(ps))]
		}
		coins := NewCoins(p, seed, prefix...)
		for j := 0; j < 8; j++ {
			key := rng.Uint64() >> (rng.Intn(4) * 16)
			keys := append(append([]uint64(nil), prefix...), key)
			want := CoinAt(p, seed, keys...)
			if got := coins.At(key); got != want {
				t.Fatalf("p=%v seed=%d keys=%v: Coins.At = %v, CoinAt = %v", p, seed, keys, got, want)
			}
			switch {
			case p <= 0 && want, p >= 1 && !want:
				t.Fatalf("p=%v: CoinAt = %v, want the clamp's answer", p, want)
			case p > 0 && p < 1:
				if ref := Split(seed, keys...).Float64() < p; ref != want {
					t.Fatalf("p=%v seed=%d keys=%v: CoinAt = %v, Split draw = %v", p, seed, keys, want, ref)
				}
			}
		}
	}
}

func TestBoolBalance(t *testing.T) {
	s := New(29)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool() {
			trues++
		}
	}
	if trues < 49000 || trues > 51000 {
		t.Fatalf("Bool imbalance: %d/%d", trues, n)
	}
}

func TestMixBijectiveSample(t *testing.T) {
	// mix is a bijection on 64 bits; sample-check injectivity on a range.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := mix(i)
		if prev, ok := seen[h]; ok {
			t.Fatalf("mix collision: mix(%d) == mix(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestZipfRangeAndDeterminism(t *testing.T) {
	a := NewZipf(New(31), 100, 1.1)
	b := NewZipf(New(31), 100, 1.1)
	for i := 0; i < 5000; i++ {
		av, bv := a.Next(), b.Next()
		if av != bv {
			t.Fatalf("draw %d: %d != %d under equal seeds", i, av, bv)
		}
		if av < 0 || av >= 100 {
			t.Fatalf("Zipf draw %d out of [0,100)", av)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	// With exponent 1 over [0,100), P(0) = 1/H_100 ≈ 0.193: the head must
	// dominate and the ranks must be (statistically) ordered.
	z := NewZipf(New(37), 100, 1)
	const n = 100000
	counts := make([]int, 100)
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	p0 := float64(counts[0]) / n
	if math.Abs(p0-0.193) > 0.01 {
		t.Fatalf("P(0) = %v, want ≈ 0.193", p0)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[90] {
		t.Fatalf("Zipf counts not decreasing: head %d, %d, mid %d, tail %d",
			counts[0], counts[1], counts[10], counts[90])
	}
}

func TestZipfPanics(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {10, 0}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewZipf(%d, %v) should panic", tc.n, tc.s)
				}
			}()
			NewZipf(New(1), tc.n, tc.s)
		}()
	}
}

func TestQuickSplitDeterminism(t *testing.T) {
	f := func(seed, a, b uint64) bool {
		x := Split(seed, a, b).Uint64()
		y := Split(seed, a, b).Uint64()
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFloat64Bounds(t *testing.T) {
	f := func(seed uint64) bool {
		v := New(seed).Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
