package spanner

import (
	"context"
	"testing"
	"testing/quick"

	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
)

func verifyUnweighted(t *testing.T, g *graph.Graph, r *UnweightedResult) dist.StretchReport {
	t.Helper()
	h := r.Spanner(g)
	if _, gc := g.Components(); true {
		_, hc := h.Components()
		if gc != hc {
			t.Fatalf("component count changed %d -> %d", gc, hc)
		}
	}
	rep, err := dist.EdgeStretch(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max > r.Stats.StretchBound+1e-9 {
		t.Fatalf("measured stretch %.2f exceeds certified bound %.2f", rep.Max, r.Stats.StretchBound)
	}
	return rep
}

func TestUnweightedValid(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp-dense":  graph.GNP(300, 0.08, graph.UnitWeight, 1), // mostly dense vertices
		"gnp-sparse": graph.GNP(300, 0.01, graph.UnitWeight, 2), // mostly sparse vertices
		"grid":       graph.Grid(17, 17, graph.UnitWeight, 3),
		"pa":         graph.PreferentialAttachment(300, 3, graph.UnitWeight, 4),
		"cycle":      graph.Cycle(150, graph.UnitWeight, 5),
		"complete":   graph.Complete(50, graph.UnitWeight, 6),
	}
	for name, g := range graphs {
		for _, k := range []int{2, 3} {
			r, err := UnweightedCtx(context.Background(), g, k, UnweightedOptions{Seed: 7})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			rep := verifyUnweighted(t, g, r)
			t.Logf("%s k=%d: size=%d sparse=%d dense=%d |Z|=%d stretch max=%.2f",
				name, k, r.Size(), r.Stats.SparseCount, r.Stats.DenseCount,
				r.Stats.HittingSetSize, rep.Max)
		}
	}
}

func TestUnweightedSparseOnlyMatchesBS(t *testing.T) {
	// A graph where every vertex is sparse: on a cycle with k=2 the 4k-hop
	// ball has 17 vertices, below the cap n^{γ/2} = 1000^{0.475} ≈ 27. The
	// whole of BS07's output then lies in the sparse region, so the stretch
	// must meet the [BS07] bound 2k-1.
	g := graph.Cycle(1000, graph.UnitWeight, 11)
	r, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{Seed: 13, Gamma: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.DenseCount != 0 {
		t.Fatalf("cycle should have no dense vertices, got %d", r.Stats.DenseCount)
	}
	h := r.Spanner(g)
	rep, err := dist.EdgeStretch(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max > float64(2*2-1) {
		t.Fatalf("sparse-only stretch %.2f exceeds 2k-1", rep.Max)
	}
}

func TestUnweightedDenseCore(t *testing.T) {
	// A clique forces dense vertices (balls truncate immediately).
	g := graph.Complete(120, graph.UnitWeight, 17)
	r, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{Seed: 19, Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.DenseCount == 0 {
		t.Fatal("clique should produce dense vertices")
	}
	if r.Stats.HittingSetSize == 0 {
		t.Fatal("dense graph needs a hitting set")
	}
	verifyUnweighted(t, g, r)
	// Size sanity: far below the clique's edge count.
	if r.Size() >= g.M()/2 {
		t.Fatalf("spanner size %d not sparse vs m=%d", r.Size(), g.M())
	}
}

func TestUnweightedRejectsWeighted(t *testing.T) {
	g := graph.GNP(50, 0.1, graph.UniformWeight(1, 5), 23)
	if _, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{}); err == nil {
		t.Fatal("weighted graph accepted")
	}
}

func TestUnweightedValidatesParams(t *testing.T) {
	g := graph.Cycle(10, graph.UnitWeight, 1)
	if _, err := UnweightedCtx(context.Background(), g, 0, UnweightedOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{Gamma: 1.5}); err == nil {
		t.Fatal("gamma=1.5 accepted")
	}
	if _, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{Gamma: -0.1}); err == nil {
		t.Fatal("negative gamma accepted")
	}
}

func TestUnweightedDeterministic(t *testing.T) {
	g := graph.GNP(200, 0.06, graph.UnitWeight, 29)
	a, err := UnweightedCtx(context.Background(), g, 3, UnweightedOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	b, err := UnweightedCtx(context.Background(), g, 3, UnweightedOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EdgeIDs) != len(b.EdgeIDs) {
		t.Fatalf("sizes differ: %d vs %d", len(a.EdgeIDs), len(b.EdgeIDs))
	}
	for i := range a.EdgeIDs {
		if a.EdgeIDs[i] != b.EdgeIDs[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestUnweightedGammaTradeoff(t *testing.T) {
	// Smaller gamma -> smaller ball cap -> more sparse... no: smaller cap
	// means balls truncate earlier, so MORE dense vertices. Check direction.
	g := graph.GNP(400, 0.05, graph.UnitWeight, 37)
	lo, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{Seed: 41, Gamma: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{Seed: 41, Gamma: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Stats.BallCap >= hi.Stats.BallCap {
		t.Fatalf("ball caps not increasing in gamma: %d vs %d", lo.Stats.BallCap, hi.Stats.BallCap)
	}
	if lo.Stats.DenseCount < hi.Stats.DenseCount {
		t.Fatalf("smaller gamma should not reduce dense count: %d vs %d",
			lo.Stats.DenseCount, hi.Stats.DenseCount)
	}
	verifyUnweighted(t, g, lo)
	verifyUnweighted(t, g, hi)
}

func TestRoundsUnweightedFormula(t *testing.T) {
	// Rounds grow logarithmically in k and inversely with gamma.
	if RoundsUnweighted(16, 0.5) <= 0 {
		t.Fatal("rounds must be positive")
	}
	if RoundsUnweighted(1024, 0.5) >= 4*RoundsUnweighted(4, 0.5) {
		t.Fatalf("rounds should grow ~log k: k=4 -> %d, k=1024 -> %d",
			RoundsUnweighted(4, 0.5), RoundsUnweighted(1024, 0.5))
	}
	if RoundsUnweighted(8, 0.25) <= RoundsUnweighted(8, 0.5) {
		t.Fatal("smaller gamma must cost more rounds")
	}
}

func TestUnweightedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNM(120, 500, graph.UnitWeight, seed)
		r, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{Seed: seed})
		if err != nil {
			return false
		}
		h := r.Spanner(g)
		rep, err := dist.EdgeStretch(g, h)
		if err != nil {
			return false
		}
		return rep.Max <= r.Stats.StretchBound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestUnweightedEmptyGraph(t *testing.T) {
	g := graph.MustNew(0, nil)
	r, err := UnweightedCtx(context.Background(), g, 2, UnweightedOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 0 {
		t.Fatalf("empty graph spanner size %d", r.Size())
	}
}
