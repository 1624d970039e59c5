package dist

import (
	"math"
	"testing"

	"mpcspanner/internal/graph"
)

// bellmanFord is the brute-force oracle: O(n·m) relaxation until fixpoint.
func bellmanFord(g *graph.Graph, src int) []float64 {
	d := make([]float64, g.N())
	for i := range d {
		d[i] = math.Inf(1)
	}
	d[src] = 0
	for iter := 0; iter < g.N(); iter++ {
		changed := false
		for _, e := range g.Edges() {
			if d[e.U]+e.W < d[e.V] {
				d[e.V] = d[e.U] + e.W
				changed = true
			}
			if d[e.V]+e.W < d[e.U] {
				d[e.U] = d[e.V] + e.W
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return d
}

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":         graph.GNP(300, 0.02, graph.UniformWeight(1, 50), 1),
		"gnp-sparse":  graph.GNP(400, 0.004, graph.UniformWeight(1, 9), 2), // disconnected whp
		"grid":        graph.Grid(15, 15, graph.UniformWeight(1, 10), 3),
		"pa":          graph.PreferentialAttachment(250, 3, graph.ExpWeight(5), 4),
		"unit-cycle":  graph.Cycle(64, graph.UnitWeight, 5),
		"star":        graph.Star(40, graph.UniformWeight(1, 3), 6),
		"two-islands": twoIslands(),
		"single":      graph.MustNew(1, nil),
		"empty-edges": graph.MustNew(5, nil),
	}
}

// twoIslands is two disjoint triangles: every cross-island distance is Inf.
func twoIslands() *graph.Graph {
	return graph.MustNew(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 0, V: 2, W: 2},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 2}, {U: 3, V: 5, W: 2},
	})
}

func TestDijkstraMatchesBellmanFord(t *testing.T) {
	for name, g := range testGraphs() {
		for src := 0; src < g.N(); src += 1 + g.N()/7 {
			got := Dijkstra(g, src)
			want := bellmanFord(g, src)
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9 && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
					t.Fatalf("%s: d(%d,%d) = %v, oracle %v", name, src, v, got[v], want[v])
				}
			}
		}
	}
}

func TestDijkstraDisconnectedInf(t *testing.T) {
	g := twoIslands()
	d := Dijkstra(g, 0)
	for v := 3; v < 6; v++ {
		if d[v] != Inf || !math.IsInf(d[v], 1) {
			t.Fatalf("cross-island distance to %d should be Inf, got %v", v, d[v])
		}
	}
	if d[0] != 0 || d[2] != 2 {
		t.Fatalf("in-island distances wrong: %v", d)
	}
}

func TestBFSBallSemantics(t *testing.T) {
	g := graph.Path(10, graph.UnitWeight, 1) // 0-1-2-...-9
	ball, truncated := BFSBall(g, 0, 3, 100)
	if truncated || len(ball) != 4 {
		t.Fatalf("radius-3 ball on a path should be {0,1,2,3}: %v trunc=%v", ball, truncated)
	}
	if ball[0] != 0 {
		t.Fatalf("ball must start at the center, got %v", ball)
	}
	// Cap smaller than the true ball must report truncation.
	ball, truncated = BFSBall(g, 0, 9, 4)
	if !truncated || len(ball) > 4 {
		t.Fatalf("cap 4 on a 10-ball: got %d vertices trunc=%v", len(ball), truncated)
	}
	// Cap equal to the true ball size: complete, not truncated.
	_, truncated = BFSBall(g, 0, 9, 10)
	if truncated {
		t.Fatal("exact-cap ball reported truncated")
	}
	// Hop radius ignores weights.
	wg := graph.Path(5, graph.UniformWeight(10, 20), 2)
	ball, _ = BFSBall(wg, 0, 2, 100)
	if len(ball) != 3 {
		t.Fatalf("weighted path: hop ball should ignore weights, got %v", ball)
	}
	// Disconnected: ball never crosses islands.
	ball, truncated = BFSBall(twoIslands(), 0, 10, 100)
	if truncated || len(ball) != 3 {
		t.Fatalf("island ball should be its triangle: %v trunc=%v", ball, truncated)
	}
}

func TestAPSPMatchesDijkstraAndIsDeterministic(t *testing.T) {
	g := graph.Connectify(graph.GNP(120, 0.04, graph.UniformWeight(1, 30), 7), 15)
	serial := apspWorkers(g, 1)
	parallel := apspWorkers(g, 8)
	for v := 0; v < g.N(); v++ {
		row := Dijkstra(g, v)
		for u := range row {
			if serial[v][u] != row[u] || parallel[v][u] != row[u] {
				t.Fatalf("APSP row %d col %d: serial %v parallel %v dijkstra %v",
					v, u, serial[v][u], parallel[v][u], row[u])
			}
		}
	}
	// Symmetry on an undirected graph (up to float summation order along
	// the reversed path).
	m := APSP(g)
	for v := 0; v < g.N(); v += 11 {
		for u := 0; u < g.N(); u += 7 {
			if math.Abs(m[v][u]-m[u][v]) > 1e-9 {
				t.Fatalf("APSP not symmetric at (%d,%d): %v vs %v", v, u, m[v][u], m[u][v])
			}
		}
	}
}

func TestEdgeStretchIdentityAndSubgraph(t *testing.T) {
	g := graph.Connectify(graph.GNP(200, 0.03, graph.UniformWeight(1, 40), 9), 20)
	rep, err := EdgeStretch(g, g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != g.M() {
		t.Fatalf("checked %d of %d edges", rep.Checked, g.M())
	}
	// In-graph shortest paths can undercut an edge's own weight but never
	// exceed it, and some edge is always tight.
	if rep.Max > 1+1e-9 || rep.Max < 1-1e-9 {
		t.Fatalf("identity stretch max %v, want 1", rep.Max)
	}
	if rep.Min > rep.P50 || rep.P50 > rep.P90 || rep.P90 > rep.P99 || rep.P99 > rep.Max {
		t.Fatalf("quantiles not monotone: %+v", rep)
	}
	if rep.Mean < rep.Min || rep.Mean > rep.Max {
		t.Fatalf("mean %v outside [min, max]", rep.Mean)
	}
}

func TestEdgeStretchDisconnectingSubgraphIsInf(t *testing.T) {
	// A path: dropping the middle edge makes its stretch Inf.
	g := graph.Path(6, graph.UnitWeight, 1)
	keep := []int{0, 1, 3, 4} // drop edge id 2 (between 2 and 3)
	h := g.Subgraph(keep)
	rep, err := EdgeStretch(g, h)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rep.Max, 1) || rep.Max != Inf {
		t.Fatalf("dropped bridge should give Inf max stretch, got %v", rep.Max)
	}
}

func TestEdgeStretchVertexMismatch(t *testing.T) {
	g := graph.Path(5, graph.UnitWeight, 1)
	h := graph.Path(6, graph.UnitWeight, 1)
	if _, err := EdgeStretch(g, h); err == nil {
		t.Fatal("vertex count mismatch accepted")
	}
	if _, err := SampledEdgeStretch(g, h, 10, 1); err == nil {
		t.Fatal("sampled: vertex count mismatch accepted")
	}
	if _, err := PairStretchOpts(g, h, 2, 1, SolverOptions{}); err == nil {
		t.Fatal("pair: vertex count mismatch accepted")
	}
	if _, err := StretchCDFOpts(g, h, 2, []float64{0.5}, 1, SolverOptions{}); err == nil {
		t.Fatal("cdf: vertex count mismatch accepted")
	}
}

func TestSampledEdgeStretchDeterministic(t *testing.T) {
	g := graph.Connectify(graph.GNP(300, 0.03, graph.UniformWeight(1, 25), 13), 12)
	h := g.Subgraph(spannerLikeSubset(g))
	a, err := SampledEdgeStretch(g, h, 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SampledEdgeStretch(g, h, 150, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	c, err := SampledEdgeStretch(g, h, 150, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced identical sampled reports")
	}
	if a.Checked != 150 {
		t.Fatalf("checked %d, want 150", a.Checked)
	}
	// Oversampling degrades to the exact check.
	exact, err := EdgeStretch(g, h)
	if err != nil {
		t.Fatal(err)
	}
	over, err := SampledEdgeStretch(g, h, g.M()+1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if over != exact {
		t.Fatalf("oversampled report should equal exact:\n%+v\n%+v", over, exact)
	}
	// Sampled max can never exceed the exact max.
	if a.Max > exact.Max+1e-9 {
		t.Fatalf("sample max %v above exact max %v", a.Max, exact.Max)
	}
}

// spannerLikeSubset keeps a connectivity-preserving subset of edges: a
// spanning forest plus every third remaining edge.
func spannerLikeSubset(g *graph.Graph) []int {
	uf := make([]int, g.N())
	for i := range uf {
		uf[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	var keep []int
	for id, e := range g.Edges() {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			uf[ru] = rv
			keep = append(keep, id)
		} else if id%3 == 0 {
			keep = append(keep, id)
		}
	}
	return keep
}

func TestPairStretchSubgraphAtLeastOne(t *testing.T) {
	g := graph.Connectify(graph.GNP(250, 0.03, graph.UniformWeight(1, 15), 17), 8)
	h := g.Subgraph(spannerLikeSubset(g))
	rep, err := PairStretchOpts(g, h, 20, 21, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Min < 1-1e-9 {
		t.Fatalf("subgraph distances cannot shrink: min ratio %v", rep.Min)
	}
	if rep.Checked == 0 || math.IsInf(rep.Max, 1) {
		t.Fatalf("connected instance produced report %+v", rep)
	}
	again, err := PairStretchOpts(g, h, 20, 21, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep != again {
		t.Fatal("PairStretch not deterministic under equal seeds")
	}
	if _, err := PairStretchOpts(g, h, 0, 1, SolverOptions{}); err == nil {
		t.Fatal("zero sources accepted")
	}
}

func TestPairStretchEmptySample(t *testing.T) {
	// Edgeless graph: no source reaches anything. PairStretch reports the
	// empty sample; StretchCDF, which cannot quantile nothing, errors.
	g := graph.MustNew(8, nil)
	rep, err := PairStretchOpts(g, g, 3, 1, SolverOptions{})
	if err != nil {
		t.Fatalf("empty sample should not error: %v", err)
	}
	if rep != (StretchReport{}) {
		t.Fatalf("empty sample should be the zero report, got %+v", rep)
	}
	if _, err := StretchCDFOpts(g, g, 3, []float64{0.5}, 1, SolverOptions{}); err == nil {
		t.Fatal("CDF over an empty sample accepted")
	}
}

func TestStretchCDFMatchesPairStretch(t *testing.T) {
	g := graph.Connectify(graph.GNP(200, 0.035, graph.UnitWeight, 23), 1)
	h := g.Subgraph(spannerLikeSubset(g))
	rep, err := PairStretchOpts(g, h, 12, 31, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := StretchCDFOpts(g, h, 12, []float64{0, 0.5, 0.9, 0.99, 1}, 31, SolverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] != rep.Min || qs[1] != rep.P50 || qs[2] != rep.P90 || qs[3] != rep.P99 || qs[4] != rep.Max {
		t.Fatalf("CDF %v disagrees with report %+v under the same seed", qs, rep)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
}

// TestDijkstraIntoMatchesAndIsAllocationFree pins DijkstraInto's contract:
// same distances as Dijkstra, zero allocations with a right-sized buffer.
func TestDijkstraIntoMatchesAndIsAllocationFree(t *testing.T) {
	g := graph.Connectify(graph.GNP(400, 0.015, graph.UniformWeight(1, 60), 5), 9)
	want := Dijkstra(g, 3)
	buf := make([]float64, g.N())
	got := DijkstraInto(g, 3, buf)
	if &got[0] != &buf[0] {
		t.Fatal("DijkstraInto must fill the provided right-sized buffer")
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("vertex %d: DijkstraInto %v != Dijkstra %v", v, got[v], want[v])
		}
	}
	if !raceEnabled { // under -race, sync.Pool drops entries by design
		DijkstraInto(g, 1, buf) // warm the pool before counting
		allocs := testing.AllocsPerRun(10, func() { DijkstraInto(g, 2, buf) })
		// < 1 rather than == 0: a GC landing mid-measurement may clear the
		// sync.Pool and force one re-allocation, which the average absorbs.
		if allocs >= 1 {
			t.Fatalf("warm DijkstraInto allocated %.1f objects/op, want ~0", allocs)
		}
	}
	if len(DijkstraInto(g, 0, nil)) != g.N() {
		t.Fatal("nil buffer must be replaced by a fresh row")
	}
}
