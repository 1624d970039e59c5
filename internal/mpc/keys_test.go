package mpc

import (
	"context"
	"math"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/xrand"
)

// randomTuples draws a tuple set with deliberately heavy label/weight ties
// and a sprinkling of +Inf weights, over a label space of n and an edge-id
// space of m — the tie patterns the keyed sorts must order exactly like the
// comparators they replaced.
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
			CSrc: int32(rng.Intn(n)),
			CDst: int32(rng.Intn(n)),
			W:    w,
			Orig: int32(rng.Intn(m)),
		}
	}
	return ts
}

// tupleGraph builds a graph whose edge ids 0..m-1 carry the weights the
// tuple set references, so newKeyEncoding's weight ranks describe them. Each
// tuple's W is then forced to its edge's weight — the invariant (Orig
// determines W) the driver maintains and the rank encoding relies on.
func tupleGraph(t *testing.T, rng *xrand.Source, ts []Tuple, n, m int, infWeights bool) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, m)
	for i := range edges {
		w := float64(rng.Intn(6)) + 1
		if infWeights && rng.Intn(9) == 0 {
			w = math.Inf(1)
		}
		edges[i] = graph.Edge{U: i % n, V: (i + 1 + i%(n-1)) % n, W: w}
		if edges[i].U == edges[i].V {
			edges[i].V = (edges[i].V + 1) % n
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ts {
		ts[i].W = g.Edge(int(ts[i].Orig)).W
	}
	return g
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

// TestKeyEncodingsMatchComparators is the ISSUE's property test: for each of
// the driver's three converted sorts, SortByKey with the encoding orders
// exactly like Sort with the comparator it replaced — ties, +Inf weights and
// all — at several worker counts.
func TestKeyEncodingsMatchComparators(t *testing.T) {
	const n, m, count = 37, 211, 4000
	cases := []struct {
		name string
		run  func(s *Sim, enc *keyEncoding) error
	}{
		{"group", sortGroup},
		{"mirror", sortMirror},
		{"pairs", sortPairs},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := xrand.Split(17, 0x6b657973, uint64(len(tc.name)))
			base := randomTuples(rng, count, n, m, true)
			g := tupleGraph(t, rng, base, n, m, true)
			enc := newKeyEncoding(g, 1)
			if enc == nil {
				t.Fatal("encoding must fit for this graph size")
			}
			want := loadSim(t, base, 1)
			if err := tc.run(want, nil); err != nil { // comparator fallback
				t.Fatal(err)
			}
			wantTs := snapshot(t, want)
			for _, w := range []int{1, 2, 4} {
				got := loadSim(t, base, w)
				if err := tc.run(got, enc); err != nil {
					t.Fatal(err)
				}
				gotTs := snapshot(t, got)
				for i := range wantTs {
					if gotTs[i] != wantTs[i] {
						t.Fatalf("workers=%d slot %d: keyed %+v != comparator %+v",
							w, i, gotTs[i], wantTs[i])
					}
				}
				if got.Rounds() != want.Rounds() || got.Sorts() != want.Sorts() {
					t.Fatalf("keyed sort charged (rounds=%d sorts=%d), comparator (rounds=%d sorts=%d)",
						got.Rounds(), got.Sorts(), want.Rounds(), want.Sorts())
				}
			}
		})
	}
}

// TestSortByKeyFullRangeKeys drives SortByKey with keys spanning the whole
// uint64 range (all eight radix digits live) against Sort with the
// corresponding comparator.
func TestSortByKeyFullRangeKeys(t *testing.T) {
	rng := xrand.Split(23, 0x66756c6c)
	ts := randomTuples(rng, 3000, 50, 97, false)
	key := func(tp *Tuple) uint64 {
		// A full-range avalanche of the tuple's fields; pure and
		// order-defining, which is all SortByKey requires.
		return xrand.Split(5, uint64(tp.Src), uint64(tp.Dst), uint64(tp.Orig)).Uint64()
	}
	want := loadSim(t, ts, 1)
	if err := want.Sort(func(a, b *Tuple) bool { return key(a) < key(b) }); err != nil {
		t.Fatal(err)
	}
	got := loadSim(t, ts, 2)
	if err := got.SortByKey(key); err != nil {
		t.Fatal(err)
	}
	wantTs, gotTs := snapshot(t, want), snapshot(t, got)
	for i := range wantTs {
		if gotTs[i] != wantTs[i] {
			t.Fatalf("slot %d: keyed %+v != comparator %+v", i, gotTs[i], wantTs[i])
		}
	}
}

// TestKeyedAndFallbackBuildsAgree runs the full driver both ways: the keyed
// radix plane and the comparator fallback must produce identical spanners
// and identical round bills.
func TestKeyedAndFallbackBuildsAgree(t *testing.T) {
	g := graph.Connectify(graph.GNP(400, 0.03, graph.UniformWeight(1, 8), 3), 11)
	opt := Options{Gamma: 0.5, Workers: 1}
	keyed, err := buildSpanner(context.Background(), g, 6, 2, 42, opt, newKeyEncoding(g, 1))
	if err != nil {
		t.Fatal(err)
	}
	fallback, err := buildSpanner(context.Background(), g, 6, 2, 42, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(keyed.EdgeIDs) != len(fallback.EdgeIDs) {
		t.Fatalf("keyed spanner has %d edges, fallback %d", len(keyed.EdgeIDs), len(fallback.EdgeIDs))
	}
	for i := range keyed.EdgeIDs {
		if keyed.EdgeIDs[i] != fallback.EdgeIDs[i] {
			t.Fatalf("edge %d differs: keyed %d, fallback %d", i, keyed.EdgeIDs[i], fallback.EdgeIDs[i])
		}
	}
	if keyed.Rounds != fallback.Rounds || keyed.Sorts != fallback.Sorts || keyed.TreeOps != fallback.TreeOps {
		t.Fatalf("cost profiles differ: keyed %+v, fallback %+v", keyed, fallback)
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
