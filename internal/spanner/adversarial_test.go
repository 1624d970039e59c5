package spanner

import (
	"context"
	"math"
	"testing"

	"mpcspanner/internal/graph"
)

// Adversarial and degenerate inputs: extreme weight scales, pathological
// topologies, and tie-heavy instances. Each must still produce a certified
// spanner (the engine's CheckInvariants assertions are armed throughout the
// package's tests, so structural corruption panics rather than passing).

func TestExtremeWeightScales(t *testing.T) {
	// Weights spanning 21 orders of magnitude stress the weighted-stretch
	// machinery (Step B3's strictly-less rule and Definition 4.4(B)).
	edges := []graph.Edge{}
	n := 64
	for v := 0; v < n-1; v++ {
		w := math.Pow(10, float64(v%22)-9) // 1e-9 … 1e12
		edges = append(edges, graph.Edge{U: v, V: v + 1, W: w})
	}
	// Chords with opposite-extreme weights.
	for v := 0; v+7 < n; v += 5 {
		edges = append(edges, graph.Edge{U: v, V: v + 7, W: math.Pow(10, float64((v+11)%22)-9)})
	}
	g := graph.MustNew(n, edges)
	for _, c := range []struct{ k, t int }{{4, 1}, {8, 2}} {
		r, err := GeneralCtx(context.Background(), g, c.k, c.t, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(g, r, StretchBound(c.k, c.t)); err != nil {
			t.Fatalf("k=%d t=%d: %v", c.k, c.t, err)
		}
	}
}

func TestAllEqualWeightsTieStorm(t *testing.T) {
	// Every weight identical: all decisions go through the deterministic
	// tie-breaks. Complete graph maximizes simultaneous ties.
	g := graph.Complete(40, graph.UnitWeight, 1)
	for _, tt := range []int{1, 2} {
		r, err := GeneralCtx(context.Background(), g, 5, tt, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(g, r, StretchBound(5, tt)); err != nil {
			t.Fatal(err)
		}
		// K40 must sparsify substantially at k=5.
		if r.Size() > g.M()/2 {
			t.Fatalf("t=%d: kept %d of %d clique edges", tt, r.Size(), g.M())
		}
	}
}

func TestStarAndDoubleStar(t *testing.T) {
	// Stars: one grow iteration should swallow everything around a sampled
	// center; spanner must be the star itself (it is a tree).
	g := graph.Star(200, graph.UniformWeight(1, 5), 3)
	r, err := GeneralCtx(context.Background(), g, 4, 2, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != g.M() {
		t.Fatalf("tree input must be kept whole: %d of %d", r.Size(), g.M())
	}
	// Double star: two hubs joined by a bridge, plus parallel bridges of
	// different weights.
	edges := []graph.Edge{}
	for v := 2; v < 52; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v, W: 1})
	}
	for v := 52; v < 102; v++ {
		edges = append(edges, graph.Edge{U: 1, V: v, W: 1})
	}
	edges = append(edges, graph.Edge{U: 0, V: 1, W: 10}, graph.Edge{U: 0, V: 1, W: 2})
	ds := graph.MustNew(102, edges)
	r, err = GeneralCtx(context.Background(), ds, 3, 1, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(ds, r, StretchBound(3, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestLongPathDeepClusters(t *testing.T) {
	// Paths force maximal cluster radii relative to size — the worst shape
	// for the radius-growth analysis (Corollary 5.9).
	g := graph.Path(2000, graph.UniformWeight(1, 3), 6)
	r, err := GeneralCtx(context.Background(), g, 16, 3, Options{Seed: 7, MeasureRadius: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != g.M() {
		t.Fatalf("path spanner must keep every edge, kept %d/%d", r.Size(), g.M())
	}
	specs := Schedule(16, 3)
	l := specs[len(specs)-1].Epoch
	bound := (math.Pow(float64(2*3+1), float64(l)) - 1) / 2
	if float64(r.Stats.Radius.MaxHops) > bound {
		t.Fatalf("path cluster radius %d above Corollary 5.9 bound %.0f", r.Stats.Radius.MaxHops, bound)
	}
}

func TestManyIsolatedVertices(t *testing.T) {
	// 10k vertices, 3 edges: the engine must not charge work to ghosts.
	g := graph.MustNew(10000, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 5000, V: 9999, W: 3}})
	r, err := GeneralCtx(context.Background(), g, 8, 2, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 3 {
		t.Fatalf("kept %d of 3 edges", r.Size())
	}
}

func TestHeavyParallelMultigraph(t *testing.T) {
	// 50 parallel edges per pair on a triangle; exactly one survivor per
	// pair is needed for stretch 1 at k=1, and bounds must hold for k>1.
	var edges []graph.Edge
	for i := 0; i < 50; i++ {
		w := float64(1 + i)
		edges = append(edges,
			graph.Edge{U: 0, V: 1, W: w}, graph.Edge{U: 1, V: 2, W: w}, graph.Edge{U: 0, V: 2, W: w})
	}
	g := graph.MustNew(3, edges)
	r, err := GeneralCtx(context.Background(), g, 1, 1, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 3 {
		t.Fatalf("k=1 on multigraph kept %d, want 3 minima", r.Size())
	}
	r, err = GeneralCtx(context.Background(), g, 4, 1, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(g, r, StretchBound(4, 1)); err != nil {
		t.Fatal(err)
	}
}
