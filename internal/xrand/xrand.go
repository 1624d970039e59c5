// Package xrand provides deterministic, splittable pseudo-randomness.
//
// Every algorithm in this repository takes an explicit 64-bit seed and derives
// all of its random choices through splittable streams keyed by structured
// tuples such as (seed, epoch, iteration, clusterID). Two executions of the
// same algorithm — e.g. the sequential reference implementation in
// internal/spanner and the simulated distributed execution in internal/mpc —
// therefore draw identical coins for identical logical events and produce
// bit-identical outputs. That shared-randomness property is what the paper's
// §6 simulation and the Appendix B local [BS07] simulations assume, and the
// cross-plane equality checks of the test suite rely on it.
//
// The generator is splitmix64 (Steele, Lea, Flood 2014), which passes BigCrush
// and has a trivially splittable structure: hashing the key tuple into the
// state yields independent streams for distinct tuples.
package xrand

import (
	"math"
	"sort"
)

// golden is the splitmix64 increment, 2^64 / phi rounded to odd.
const golden = 0x9e3779b97f4a7c15

// mix is the splitmix64 finalizer: a bijective avalanche function on 64 bits.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic random stream. The zero value is a valid stream
// seeded with 0; prefer New or Split to construct sources.
type Source struct {
	state uint64
}

// New returns a stream derived from seed alone.
func New(seed uint64) *Source {
	return &Source{state: mix(seed + golden)}
}

// Split derives an independent stream keyed by (seed, keys...). Distinct key
// tuples yield statistically independent streams; the same tuple always
// yields the same stream. This is the primitive that lets per-entity coins be
// re-drawn identically on different execution planes.
func Split(seed uint64, keys ...uint64) *Source {
	return &Source{state: absorb(mix(seed+golden), keys...)}
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return mix(s.state)
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 {
	return int64(s.Uint64() >> 1)
}

// Bool returns true with probability 1/2.
func (s *Source) Bool() bool {
	return s.Uint64()&1 == 1
}

// Coin returns true with probability p. Values of p outside [0, 1] are
// clamped: p <= 0 never fires, p >= 1 always fires.
func (s *Source) Coin(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1,
// via inverse transform sampling. Used by weight generators.
func (s *Source) ExpFloat64() float64 {
	u := s.Float64()
	// Guard the log argument away from zero.
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}

// Zipf draws from the Zipf distribution over [0, n): P(i) ∝ 1/(i+1)^s.
// It models the skewed (hot-source) query workloads the distance-oracle
// benchmarks serve, via inverse-CDF sampling over a precomputed table.
// Construction is O(n); each draw is O(log n). Deterministic given src.
type Zipf struct {
	src *Source
	cdf []float64 // cdf[i] = P(X <= i), cdf[n-1] = 1
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s > 0 drawing
// its randomness from src. It panics if n <= 0 or s <= 0.
func NewZipf(src *Source, n int, s float64) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if s <= 0 {
		panic("xrand: NewZipf with non-positive exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	cdf[n-1] = 1
	return &Zipf{src: src, cdf: cdf}
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() int {
	u := z.src.Float64()
	// The first index with cdf[i] >= u is the bucket whose CDF interval
	// [cdf[i-1], cdf[i]) contains u; u < 1 = cdf[n-1] keeps it in range.
	return sort.SearchFloat64s(z.cdf, u)
}

// CoinAt is the cross-plane sampling primitive: it reports whether the coin
// for logical event (seed, keys...) with success probability p fires. The
// outcome is a pure function of its arguments, so any execution plane can
// evaluate the same event and observe the same outcome without communication.
//
// The evaluation inlines the first draw of the stream Split(seed, keys...)
// would yield — bit-identical to Split(seed, keys...).Float64() < p — but
// without materializing a Source, because CoinAt sits on the per-tuple hot
// paths of the construction pipeline and a heap allocation per coin was the
// pipeline's single largest allocation source. Callers that flip many coins
// sharing every key but the last use Coins instead.
func CoinAt(p float64, seed uint64, keys ...uint64) bool {
	return fires(p, absorb(mix(seed+golden), keys...))
}

// Coins is the prefix form of CoinAt: the coins of the events
// (seed, keys..., key) for every last key, with the shared prefix mixed
// into the stream state once. Coins{...}.At(key) equals
// CoinAt(p, seed, keys..., key) by construction — both run absorb and
// fires — at 3 mix calls per coin instead of 2·len(keys) + 4. A Coins is an
// immutable value, safe for concurrent use.
type Coins struct {
	p     float64
	state uint64 // the stream state after absorbing seed and keys
}

// NewCoins fixes the probability, the seed and every key but the last.
func NewCoins(p float64, seed uint64, keys ...uint64) Coins {
	return Coins{p: p, state: absorb(mix(seed+golden), keys...)}
}

// At reports whether the coin for event (seed, keys..., key) fires.
func (c Coins) At(key uint64) bool { return fires(c.p, absorb(c.state, key)) }

// absorb folds keys into a stream state, as Split does.
func absorb(s uint64, keys ...uint64) uint64 {
	for _, k := range keys {
		s = mix(s ^ mix(k+golden))
	}
	return s
}

// fires reports whether the first Float64 draw of the stream at state s
// falls below p. p <= 0 never fires and p >= 1 always does.
func fires(p float64, s uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(mix(s+golden)>>11)/(1<<53) < p
}
