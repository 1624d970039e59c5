package mpc

import (
	"errors"
	"math"
	"sort"
	"testing"

	"mpcspanner/internal/core"
	"mpcspanner/internal/xrand"
)

// randomTuples draws a tuple set with deliberately heavy label/weight ties
// and a sprinkling of +Inf weights, over a label space of n and an edge-id
// space of m.
func randomTuples(rng *xrand.Source, count, n, m int, infWeights bool) []Tuple {
	ts := make([]Tuple, count)
	for i := range ts {
		w := float64(rng.Intn(6)) // heavy ties
		if infWeights && rng.Intn(9) == 0 {
			w = math.Inf(1)
		}
		ts[i] = Tuple{
			Src:  int32(rng.Intn(n)),
			Dst:  int32(rng.Intn(n)),
			W:    w,
			Orig: int32(rng.Intn(m)),
		}
	}
	return ts
}

// loadSim wraps tuples in a Sim big enough to never overflow placement.
func loadSim(t *testing.T, ts []Tuple, workers int) *Sim {
	t.Helper()
	s, err := NewSim(len(ts)+2, len(ts), 1)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(workers)
	if err := s.Load(ts); err != nil {
		t.Fatal(err)
	}
	return s
}

// snapshot copies the stored tuples out in placement order.
func snapshot(t *testing.T, s *Sim) []Tuple {
	t.Helper()
	out := make([]Tuple, 0, s.Len())
	if err := s.Scan(func(tp *Tuple) { out = append(out, *tp) }); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkKeyEncodings asserts that SortByKey with each of
// newKeyEncoding(n, cluster)'s keys leaves its tuples in exactly the order
// sort.SliceStable gives under the label-pair comparator the key encodes —
// ties and all — and charges one sort, at several worker counts. The group
// key sorts the tuples in groups, the pair key those in pairs.
func checkKeyEncodings(t *testing.T, n int, cluster []int32, groups, pairs []Tuple) {
	t.Helper()
	enc := newKeyEncoding(n, cluster)
	orders := []struct {
		name string
		key  func(*Tuple) uint64
		pair func(*Tuple) (int32, int32)
		base []Tuple
	}{
		{"group", enc.group, func(t *Tuple) (int32, int32) { return t.Src, cluster[t.Dst] }, groups},
		{"pairs", enc.pair, func(t *Tuple) (int32, int32) { return min(t.Src, t.Dst), max(t.Src, t.Dst) }, pairs},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			want := append([]Tuple(nil), o.base...)
			sort.SliceStable(want, func(i, j int) bool {
				ai, aj := o.pair(&want[i])
				bi, bj := o.pair(&want[j])
				return ai < bi || ai == bi && aj < bj
			})
			for _, w := range []int{1, 2, 4} {
				got := loadSim(t, o.base, w)
				if err := got.SortByKey(o.key); err != nil {
					t.Fatal(err)
				}
				gotTs := snapshot(t, got)
				for i := range want {
					if gotTs[i] != want[i] {
						t.Fatalf("workers=%d slot %d: keyed %+v != comparator %+v", w, i, gotTs[i], want[i])
					}
				}
				if got.Sorts() != 1 || got.Rounds() != got.SortRounds() {
					t.Fatalf("keyed sort charged rounds=%d sorts=%d, want %d and 1",
						got.Rounds(), got.Sorts(), got.SortRounds())
				}
			}
		})
	}
}

// TestKeyEncodingsMatchComparators is the property test of the driver's
// two sort keys on a small label space with heavy ties: each orders
// exactly like its label-pair comparator, the group key reading cluster
// labels from a random cluster array.
func TestKeyEncodingsMatchComparators(t *testing.T) {
	const n, m, count = 37, 211, 4000
	rng := xrand.Split(17, 0x6b657973)
	ts := randomTuples(rng, count, n, m, true)
	cluster := make([]int32, n)
	for i := range cluster {
		cluster[i] = int32(rng.Intn(n))
	}
	checkKeyEncodings(t, n, cluster, ts, ts)
}

// TestKeyEncodingFullLabelRange pins the 62-bit bound: at the largest label
// space a Tuple can carry, half the labels are among the top four values,
// so both halves of every key use all of their bits and collide often, and
// each key still orders exactly like its label-pair comparator. The group
// key's second label comes from the cluster array, so its tuples' Dst is a
// small index into one whose entries take those labels.
func TestKeyEncodingFullLabelRange(t *testing.T) {
	const n = math.MaxInt32
	rng := xrand.Split(19, 0x66756c6c)
	label := func(i int) int32 {
		if i%2 == 0 {
			return int32(n - 1 - rng.Intn(4))
		}
		return int32(rng.Intn(n))
	}
	cluster := make([]int32, 16)
	for i := range cluster {
		cluster[i] = label(i)
	}
	groups := make([]Tuple, 3000)
	pairs := make([]Tuple, 3000)
	for i := range pairs {
		w := float64(rng.Intn(3))
		groups[i] = Tuple{Src: label(i), Dst: int32(rng.Intn(len(cluster))), W: w, Orig: int32(i)}
		pairs[i] = Tuple{Src: label(i), Dst: label(i), W: w, Orig: int32(i)}
	}
	checkKeyEncodings(t, n, cluster, groups, pairs)
}

// TestSortByKeyFullRangeKeys drives SortByKey with keys spanning the whole
// uint64 range (all eight radix digits live) against sort.SliceStable on
// the same keys.
func TestSortByKeyFullRangeKeys(t *testing.T) {
	rng := xrand.Split(23, 0x66756c6c)
	ts := randomTuples(rng, 3000, 50, 97, false)
	key := func(tp *Tuple) uint64 {
		// A full-range avalanche of the tuple's fields; pure and
		// order-defining, which is all SortByKey requires.
		return xrand.Split(5, uint64(tp.Src), uint64(tp.Dst), uint64(tp.Orig)).Uint64()
	}
	want := append([]Tuple(nil), ts...)
	sort.SliceStable(want, func(i, j int) bool { return key(&want[i]) < key(&want[j]) })
	got := loadSim(t, ts, 2)
	if err := got.SortByKey(key); err != nil {
		t.Fatal(err)
	}
	gotTs := snapshot(t, got)
	for i := range want {
		if gotTs[i] != want[i] {
			t.Fatalf("slot %d: keyed %+v != comparator %+v", i, gotTs[i], want[i])
		}
	}
}

// TestCheckTupleRange pins the int32 guard on fabricated sizes: ids up to
// MaxInt32 fit a Tuple, and one past it in either dimension is a typed
// option error rather than a silent wrap.
func TestCheckTupleRange(t *testing.T) {
	if err := checkTupleRange(math.MaxInt32, math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 vertices and edges rejected: %v", err)
	}
	for _, c := range []struct{ n, m int }{{1 << 31, 0}, {2, 1 << 31}} {
		err := checkTupleRange(c.n, c.m)
		var oe *core.OptionError
		if !errors.As(err, &oe) || !errors.Is(err, core.ErrInvalidOption) {
			t.Fatalf("n=%d m=%d: got %v, want a *core.OptionError", c.n, c.m, err)
		}
	}
}

// TestSimSteadyStateAllocs pins the arena contract: once the first round has
// sized the store's scratch, SortByKey, Filter, ForEachSegment and
// FilterSegments allocate nothing (serial path; the parallel path adds only
// its goroutine closures).
func TestSimSteadyStateAllocs(t *testing.T) {
	rng := xrand.Split(29, 0x616c6c6f63)
	ts := randomTuples(rng, 5000, 64, 128, false)
	s := loadSim(t, ts, 1)
	key := func(tp *Tuple) uint64 { return uint64(tp.Src)<<32 | uint64(uint32(tp.Orig)) }
	same := func(a, b *Tuple) bool { return a.Src == b.Src }
	segments := 0
	visit := func(_ int, seg []Tuple) { segments++ }
	keepAll := func(seg []Tuple, keep []bool) {
		for i := range keep {
			keep[i] = true
		}
	}
	if err := s.SortByKey(key); err != nil { // size the arena
		t.Fatal(err)
	}
	ops := []struct {
		name string
		run  func() error
	}{
		{"SortByKey", func() error { return s.SortByKey(key) }},
		{"Filter", func() error { return s.Filter(func(*Tuple) bool { return true }) }},
		{"ForEachSegment", func() error { return s.ForEachSegment(same, visit) }},
		{"FilterSegments", func() error { return s.FilterSegments(same, keepAll) }},
	}
	for _, op := range ops {
		if allocs := testing.AllocsPerRun(10, func() {
			if err := op.run(); err != nil {
				t.Fatal(err)
			}
		}); allocs > 0 {
			t.Errorf("steady-state %s allocated %.0f objects/op, want 0", op.name, allocs)
		}
	}
	if segments == 0 || s.Len() != len(ts) {
		t.Fatalf("ForEachSegment visited %d segments and %d of %d tuples remain", segments, s.Len(), len(ts))
	}
}
