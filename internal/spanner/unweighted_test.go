package spanner

import (
	"context"
	"math"
	"slices"
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

// TestGrowForest checks the dense side's multi-source BFS forest against
// per-source distances: hop is the least distance to a source (−1 where none
// reaches), the root's source achieves it and sits at its first position in
// the list, and the parent path walks hop arcs of g to exactly that source.
// With no sources every hop is −1.
func TestGrowForest(t *testing.T) {
	islands := graph.MustNew(7, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 1}})
	for name, g := range map[string]*graph.Graph{
		"grid":       graph.Grid(9, 11, graph.UnitWeight, 1),
		"gnp-sparse": graph.GNP(200, 0.008, graph.UnitWeight, 2), // disconnected whp
		"pa":         graph.PreferentialAttachment(150, 2, graph.UnitWeight, 3),
		"islands":    islands, // 5 and 6 isolated
	} {
		n := g.N()
		srcs := []int{n - 1, n / 2, 0, n / 2, n - 1}
		per := make([][]float64, len(srcs))
		for i, s := range srcs {
			per[i] = dist.Dijkstra(g, s) // unit weights: hops
		}
		f := growForest(g, srcs)
		for v := 0; v < n; v++ {
			want := math.Inf(1)
			for i := range srcs {
				want = math.Min(want, per[i][v])
			}
			if math.IsInf(want, 1) {
				if f.hop[v] != -1 || f.root[v] != -1 || f.parent[v].edge != -1 {
					t.Fatalf("%s: unreachable %d has hop %d, root %d, parent %+v", name, v, f.hop[v], f.root[v], f.parent[v])
				}
				continue
			}
			r := f.root[v]
			if float64(f.hop[v]) != want || r < 0 || r >= len(srcs) || per[r][v] != want {
				t.Fatalf("%s: vertex %d has hop %d and root %d; the least distance is %v", name, v, f.hop[v], r, want)
			}
			if first := slices.Index(srcs, srcs[r]); first != r {
				t.Fatalf("%s: vertex %d has root %d, but source %d first sits at %d", name, v, r, srcs[r], first)
			}
			x := v
			for range f.hop[v] {
				p := f.parent[x]
				if p.edge < 0 {
					t.Fatalf("%s: the path from %d stops at %d before %d hops", name, v, x, f.hop[v])
				}
				if e := g.Edge(p.edge); !(e.U == x && e.V == p.to || e.V == x && e.U == p.to) {
					t.Fatalf("%s: parent arc %+v of %d is edge %+v", name, p, x, e)
				}
				x = p.to
			}
			if x != srcs[r] || f.parent[x].edge != -1 {
				t.Fatalf("%s: the path from %d ends at %d after %d hops, not at its root %d", name, v, x, f.hop[v], srcs[r])
			}
		}
		for v, h := range growForest(g, nil).hop {
			if h != -1 {
				t.Fatalf("%s: no sources, yet vertex %d has hop %d", name, v, h)
			}
		}
	}
}
