package dist

import (
	"fmt"
	"math"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/xrand"
)

// requireRowEqual asserts bit-identity (not tolerance) between two rows.
// Both engines converge to the same float64 fixpoint — the minimum over all
// paths of the left-to-right float sum — so any difference is a bug.
func requireRowEqual(t *testing.T, want, got []float64, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: row length %d != %d", ctx, len(got), len(want))
	}
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
			t.Fatalf("%s: d[%d] = %v (bits %x), heap Dijkstra says %v (bits %x)",
				ctx, v, got[v], math.Float64bits(got[v]), want[v], math.Float64bits(want[v]))
		}
	}
}

// checkAllSources compares delta-stepping against heap Dijkstra from every
// source (or a stride of sources for larger graphs), and DistTo against the
// full row on a few targets per source.
func checkAllSources(t *testing.T, g *graph.Graph, name string, delta float64) {
	t.Helper()
	stride := 1
	if g.N() > 64 {
		stride = g.N() / 64
	}
	s := NewSolver(g, SolverOptions{Engine: EngineDelta, Delta: delta})
	if s.Engine() != EngineDelta {
		t.Fatalf("%s: explicit EngineDelta resolved to %v", name, s.Engine())
	}
	row := make([]float64, g.N())
	for src := 0; src < g.N(); src += stride {
		want := Dijkstra(g, src)
		got := s.RowInto(src, row)
		ctx := fmt.Sprintf("%s delta=%v src=%d", name, delta, src)
		requireRowEqual(t, want, got, ctx)
		requireDistToMatchRow(t, s, src, got, ctx)
	}
}

// requireDistToMatchRow checks DistTo from src against row, the full row, on
// targets that stop at different buckets: src itself, the farthest reachable
// vertex and one other vertex.
func requireDistToMatchRow(t *testing.T, s *Solver, src int, row []float64, ctx string) {
	t.Helper()
	far := src
	for v, d := range row {
		if d != Inf && d > row[far] {
			far = v
		}
	}
	for _, v := range []int{src, far, (src + 1) % len(row)} {
		if got := s.DistTo(src, v); math.Float64bits(got) != math.Float64bits(row[v]) {
			t.Fatalf("%s: DistTo(%d, %d) = %v, full row says %v", ctx, src, v, got, row[v])
		}
	}
}

func TestDeltaMatchesHeapOnFamilies(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-sparse-uniform", graph.Connectify(graph.GNP(400, 8.0/400, graph.UniformWeight(1, 100), 1), 50)},
		{"gnp-sparse-exp", graph.Connectify(graph.GNP(400, 8.0/400, graph.ExpWeight(10), 2), 50)},
		{"gnp-unit", graph.Connectify(graph.GNP(300, 6.0/300, graph.UnitWeight, 3), 1)},
		{"gnp-power", graph.Connectify(graph.GNP(300, 6.0/300, graph.PowerWeight(2, 10), 4), 8)},
		{"grid", graph.Grid(17, 19, graph.UniformWeight(1, 10), 5)},
		{"torus", graph.Torus(13, 11, graph.ExpWeight(3), 6)},
		{"path", graph.Path(257, graph.UniformWeight(0.5, 2), 7)},
		{"cycle", graph.Cycle(200, graph.UniformWeight(1, 5), 8)},
		{"star", graph.Star(300, graph.UniformWeight(1, 50), 9)},
		{"tree", graph.RandomTree(300, graph.PowerWeight(3, 6), 10)},
		{"pref-attach", graph.PreferentialAttachment(300, 3, graph.UniformWeight(1, 100), 11)},
		{"complete", graph.Complete(300, graph.UniformWeight(1, 1000), 12)},
		{"complete-dense-frontier", graph.Complete(400, graph.UniformWeight(1, 10), 99)},
		{"tiny-weights", graph.Connectify(graph.GNP(200, 8.0/200, graph.UniformWeight(1e-12, 1e-9), 13), 1e-9)},
		{"wide-weights", graph.Connectify(graph.GNP(200, 8.0/200, graph.UniformWeight(1e-6, 1e6), 14), 1)},
	}
	for _, f := range families {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			checkAllSources(t, f.g, f.name, 0) // auto-tuned Δ
		})
	}
}

// TestDeltaExplicitWidths sweeps Δ across regimes: much smaller than the
// minimum weight (every edge heavy — Dial-like), comparable to the mean, and
// larger than the graph diameter (every edge light — one Bellman-Ford-style
// bucket), including a complete graph whose single bucket holds every vertex
// at once. All must agree bit-for-bit with the heap.
func TestDeltaExplicitWidths(t *testing.T) {
	g := graph.Connectify(graph.GNP(300, 8.0/300, graph.UniformWeight(1, 100), 21), 50)
	for _, delta := range []float64{1e-9, 0.5, 5, 100, 1e12, math.Inf(1)} {
		checkAllSources(t, g, "width-sweep", delta)
	}
	checkAllSources(t, graph.Complete(400, graph.UniformWeight(1, 10), 99), "complete-single-bucket", 1e9)
}

func TestDeltaDisconnectedComponents(t *testing.T) {
	// Two GNP islands plus isolated vertices: unreachable entries must be the
	// Inf sentinel, bit-identical to the heap's.
	a := graph.GNP(150, 10.0/150, graph.UniformWeight(1, 10), 31)
	var edges []graph.Edge
	for _, e := range a.Edges() {
		edges = append(edges, e)
		edges = append(edges, graph.Edge{U: e.U + 150, V: e.V + 150, W: e.W})
	}
	g, err := graph.New(310, edges) // vertices 300..309 are isolated
	if err != nil {
		t.Fatal(err)
	}
	checkAllSources(t, g, "disconnected", 0)

	s := NewSolver(g, SolverOptions{Engine: EngineDelta})
	row := s.Row(305) // isolated source
	for v, d := range row {
		switch {
		case v == 305 && d != 0:
			t.Fatalf("isolated source distance to itself = %v", d)
		case v != 305 && !math.IsInf(d, 1):
			t.Fatalf("isolated source reaches %d at %v; want +Inf", v, d)
		}
	}
}

func TestDeltaSingleVertexAndEdgeless(t *testing.T) {
	for _, n := range []int{1, 5} {
		g, err := graph.New(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSolver(g, SolverOptions{Engine: EngineDelta})
		requireRowEqual(t, Dijkstra(g, 0), s.Row(0), fmt.Sprintf("edgeless n=%d", n))
	}
}

// TestDeltaRejectsZeroWeight pins the invariant delta-stepping's light/heavy
// split and termination argument rely on: the graph layer refuses
// non-positive (and NaN) weights, so w > 0 holds for every arc the solver
// ever sees.
func TestDeltaRejectsZeroWeight(t *testing.T) {
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(-1)} {
		if _, err := graph.New(2, []graph.Edge{{U: 0, V: 1, W: w}}); err == nil {
			t.Fatalf("graph.New accepted weight %v; the solver requires w > 0", w)
		}
	}
}

// TestDeltaDenormalWeights runs the engines over subnormal float weights,
// where d[u] + w can round to exactly d[u]: relaxation must still terminate
// and agree with the heap. On a graph whose weights are all subnormal the
// auto-tuned Δ is subnormal too, and its reciprocal would overflow.
func TestDeltaDenormalWeights(t *testing.T) {
	denormal := math.SmallestNonzeroFloat64
	edges := []graph.Edge{
		{U: 0, V: 1, W: denormal},
		{U: 1, V: 2, W: denormal * 4},
		{U: 2, V: 3, W: 1},
		{U: 0, V: 3, W: 1},
		{U: 3, V: 4, W: denormal},
		{U: 1, V: 4, W: 2},
	}
	g, err := graph.New(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	checkAllSources(t, g, "denormal", 0)
	checkAllSources(t, g, "denormal-wide", 10)

	tiny, err := graph.New(4, []graph.Edge{
		{U: 0, V: 1, W: denormal}, {U: 1, V: 2, W: 1e-320}, {U: 2, V: 3, W: 1e-310}, {U: 0, V: 3, W: 2e-310},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAllSources(t, tiny, "all-subnormal", 0)
	checkAllSources(t, tiny, "all-subnormal-explicit", denormal)
}

func TestDeltaParallelEdges(t *testing.T) {
	// Parallel edges with distinct weights: the split may place the copies in
	// different classes; the minimum must still win.
	g, err := graph.New(3, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 0, V: 1, W: 2}, {U: 0, V: 1, W: 9},
		{U: 1, V: 2, W: 1}, {U: 1, V: 2, W: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAllSources(t, g, "parallel-edges", 0)
}

func TestEngineAutoResolution(t *testing.T) {
	small := graph.Path(64, graph.UnitWeight, 1)
	// Auto Δ = avgW / avgDeg: the path has unit weights and average degree
	// 2·63/64, so the width must land near 64/126.
	wantDelta := 1.0 / (2 * 63.0 / 64)
	for _, e := range []Engine{EngineAuto, EngineDelta} {
		s := NewSolver(small, SolverOptions{Engine: e})
		if s.Engine() != EngineDelta || math.Abs(s.Delta()-wantDelta) > 1e-12 {
			t.Fatalf("%v on n=64 resolved to %v with Δ = %v; want delta-stepping with Δ = %v",
				e, s.Engine(), s.Delta(), wantDelta)
		}
	}
	if d := NewSolver(small, SolverOptions{Engine: EngineHeap}).Delta(); d != 0 {
		t.Fatalf("heap solver reports delta %v; want 0", d)
	}
	s := NewSolver(small, SolverOptions{Engine: EngineDelta, Delta: 2.5})
	if s.Delta() != 2.5 {
		t.Fatalf("explicit Δ not honored: %v", s.Delta())
	}
}

func TestEngineStringAndParse(t *testing.T) {
	cases := map[Engine]string{EngineAuto: "auto", EngineHeap: "heap", EngineDelta: "delta-stepping"}
	for e, name := range cases {
		if e.String() != name {
			t.Fatalf("%d.String() = %q; want %q", e, e.String(), name)
		}
		got, err := ParseEngine(name)
		if err != nil || got != e {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if got, err := ParseEngine("delta"); err != nil || got != EngineDelta {
		t.Fatalf("ParseEngine(delta) = %v, %v", got, err)
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("ParseEngine accepted bogus engine")
	}
}

func TestSolverMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	g := graph.Connectify(graph.GNP(300, 8.0/300, graph.UniformWeight(1, 100), 41), 50)
	s := NewSolver(g, SolverOptions{Engine: EngineDelta, Metrics: reg})
	s.Row(0)
	s.Row(1)
	if v := reg.Counter("dist_sssp_rows_total").Value(); v != 2 {
		t.Fatalf("dist_sssp_rows_total = %d; want 2", v)
	}
	if v := reg.Counter("dist_delta_relaxations_total").Value(); v <= 0 {
		t.Fatalf("dist_delta_relaxations_total = %d; want > 0", v)
	}
	if v := reg.Counter("dist_delta_buckets_total").Value(); v <= 0 {
		t.Fatalf("dist_delta_buckets_total = %d; want > 0", v)
	}
	if v := reg.Counter("dist_delta_light_phases_total").Value(); v <= 0 {
		t.Fatalf("dist_delta_light_phases_total = %d; want > 0", v)
	}

	// DistTo is no row fill, and both of its sides count. On a unit-weight
	// path from one end to the other, the forward side alone improves
	// exactly n−1 labels, once each; the backward side's come on top.
	reg = obs.NewRegistry()
	path := graph.Path(64, graph.UnitWeight, 1)
	s = NewSolver(path, SolverOptions{Engine: EngineDelta, Metrics: reg})
	if d := s.DistTo(0, 63); d != 63 {
		t.Fatalf("DistTo(0, 63) on a unit path = %v; want 63", d)
	}
	if v := reg.Counter("dist_sssp_rows_total").Value(); v != 0 {
		t.Fatalf("DistTo counted %d rows; want 0", v)
	}
	if v := reg.Counter("dist_delta_relaxations_total").Value(); v <= 63 {
		t.Fatalf("DistTo counted %d relaxations; want more than the forward side's 63", v)
	}
}

// TestSolverRowIntoReuse pins the pooled-scratch contract: reusing the row
// buffer makes steady-state fills allocation-free apart from bucket growth
// on the first run.
func TestSolverRowIntoReuse(t *testing.T) {
	if raceEnabled { // under -race, sync.Pool drops entries by design
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := graph.Connectify(graph.GNP(500, 8.0/500, graph.UniformWeight(1, 100), 51), 50)
	s := NewSolver(g, SolverOptions{Engine: EngineDelta})
	row := make([]float64, g.N())
	s.RowInto(0, row) // warm the pool
	allocs := testing.AllocsPerRun(20, func() {
		s.RowInto(1, row)
	})
	if allocs > 1 { // occasional bucket slice growth is tolerated; O(n) churn is not
		t.Fatalf("warm RowInto allocates %v objects per run; want ≤ 1", allocs)
	}
}

// TestDistsToSettlesTargets checks DistTo against the full row on a
// connected graph, on both engines, for several targets, the source itself
// among them, and that an unreachable target ends the run with Inf.
func TestDistsToSettlesTargets(t *testing.T) {
	g := graph.Connectify(graph.GNP(300, 0.02, graph.UniformWeight(1, 60), 29), 30)
	full := Dijkstra(g, 0)
	for _, s := range []*Solver{NewSolver(g, SolverOptions{}), NewSolver(g, SolverOptions{Engine: EngineHeap})} {
		for _, v := range []int{1, g.N() / 3, g.N() - 1, 0} {
			if d := s.DistTo(0, v); d != full[v] {
				t.Fatalf("%v: DistTo(0, %d) = %v, full run says %v", s.Engine(), v, d, full[v])
			}
		}
	}
	// Unreachable target: the run must terminate and report Inf, and a
	// reachable target after it must still be exact.
	ti := twoIslands()
	s := NewSolver(ti, SolverOptions{})
	if d := s.DistTo(0, 4); !math.IsInf(d, 1) {
		t.Fatalf("DistTo(0, 4) across two islands = %v; want +Inf", d)
	}
	if d := s.DistTo(0, 2); d != Dijkstra(ti, 0)[2] {
		t.Fatalf("DistTo(0, 2) on two islands = %v", d)
	}
}

// TestDistsToReusedScratch pins the recycling discipline: DistTo runs and
// full rows interleaved on one solver share its pooled scratches, and a
// side's uncleared row still holds labels of earlier runs from other
// sources. No bucket, queue state or stale label may leak between runs,
// whether the previous run stopped early or ran to the end.
func TestDistsToReusedScratch(t *testing.T) {
	g := graph.Connectify(graph.GNP(300, 0.02, graph.UniformWeight(1, 60), 31), 17)
	s := NewSolver(g, SolverOptions{})
	for src := 0; src < 12; src++ {
		full := Dijkstra(g, src)
		for _, v := range []int{(src + 7) % g.N(), (src * 13) % g.N(), src} {
			if d := s.DistTo(src, v); d != full[v] {
				t.Fatalf("run %d: DistTo(%d, %d) = %v, full run says %v", src, src, v, d, full[v])
			}
		}
		if src%3 == 0 {
			s.Row(src) // interleave full rows on the same pooled scratch
		}
	}
}

// TestDistsToAllocationFree pins the pooled-scratch contract: a
// steady-state DistTo, which draws two scratches and their rows from the
// pool, allocates nothing.
func TestDistsToAllocationFree(t *testing.T) {
	if raceEnabled { // under -race, sync.Pool drops entries by design
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := graph.Connectify(graph.GNP(500, 8.0/500, graph.UniformWeight(1, 100), 51), 50)
	s := NewSolver(g, SolverOptions{})
	s.DistTo(1, 250) // warm the pool and the pooled rows
	if allocs := testing.AllocsPerRun(20, func() { s.DistTo(1, 250) }); allocs > 0 {
		t.Fatalf("warm DistTo(1, 250) allocates %v objects per run; want 0", allocs)
	}
}

// TestDistToMarginMatters zeroes distTo's corridor margin δ on a fixed graph
// and gets wrong answers: a meeting sum, folded in another order than the
// fixpoint path's left-to-right sum, can fall below that sum by rounding,
// and a corridor of exactly mu then cuts a vertex of the fixpoint path off.
// With the derived margin every answer equals the row's entry.
func TestDistToMarginMatters(t *testing.T) {
	g := graph.Connectify(graph.GNP(2000, 8.0/2000, graph.UniformWeight(1, 100), 61), 50)
	s := NewSolver(g, SolverOptions{})
	r := xrand.Split(61, 0x6d617267) // "marg"
	type pair struct {
		src, dst int
		want     float64
	}
	pairs := make([]pair, 200)
	for i := range pairs {
		src := r.Intn(g.N())
		dst := (src + 1 + r.Intn(g.N()-1)) % g.N() // any vertex but src
		pairs[i] = pair{src, dst, s.Row(src)[dst]}
	}
	wrong := func() int {
		bad := 0
		for _, p := range pairs {
			if got := s.distTo(p.src, p.dst); math.Float64bits(got) != math.Float64bits(p.want) {
				bad++
			}
		}
		return bad
	}
	if bad := wrong(); bad != 0 {
		t.Fatalf("with δ = %g, %d of %d answers differ from the row", s.slack-1, bad, len(pairs))
	}
	s.slack = 1
	if bad := wrong(); bad == 0 {
		t.Fatalf("with δ = 0, all %d answers equal the row's: the test no longer shows the margin matters", len(pairs))
	}
}

// TestSolverHugeWeights pins the bucket-count clamp on an in-domain graph
// whose max/min weight ratio is 1e300. Under an explicit Δ of 1, maxW/Δ
// passes 2⁶³, and under 1e-300 it overflows to +Inf: the count must be
// clamped in float64 before any integer conversion, or every fill panics.
// Rows must still match the heap's, under the auto-tuned Δ too.
func TestSolverHugeWeights(t *testing.T) {
	g, err := graph.New(4, []graph.Edge{
		{U: 0, V: 1, W: 1e300}, {U: 1, V: 2, W: 1e300}, {U: 2, V: 3, W: 1}, {U: 0, V: 3, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{0, 1, 1e-300} {
		s := NewSolver(g, SolverOptions{Delta: delta})
		if s.buckets > maxDeltaBuckets {
			t.Fatalf("Δ=%g: bucket array of %d slots exceeds the %d cap", delta, s.buckets, maxDeltaBuckets)
		}
		if delta > 0 && s.delta == delta {
			t.Fatalf("Δ=%g: the bucket clamp did not raise Δ (%d slots)", delta, s.buckets)
		}
		for src := 0; src < g.N(); src++ {
			what := fmt.Sprintf("huge weights Δ=%g src=%d", delta, src)
			row := s.Row(src)
			requireRowEqual(t, Dijkstra(g, src), row, what)
			requireDistToMatchRow(t, s, src, row, what)
		}
	}
}

// fuzzWeight maps a fuzz family byte to a weight generator: uniform, a
// wide-range power ladder, small integers, where ties abound, or raw float64
// bit patterns over the whole weight domain graph.New admits, subnormals
// included. A raw weight is at most MaxFloat64/4096, so the weights of the
// at most 2 000 edges a fuzz graph holds have a finite sum.
func fuzzWeight(family uint8) graph.WeightFn {
	switch family % 4 {
	case 1:
		return graph.PowerWeight(4, 12)
	case 2:
		return func(r *xrand.Source) float64 { return float64(1 + r.Intn(4)) }
	case 3:
		top := math.Float64bits(math.MaxFloat64 / 4096)
		return func(r *xrand.Source) float64 { return math.Float64frombits(1 + r.Uint64()%top) }
	}
	return graph.UniformWeight(0.1, 10)
}

// FuzzDistToVsRow derives a random graph with two isolated vertices, a source
// and a list of targets from the fuzz input, and checks DistTo against
// RowInto bit for bit on every target. The list always holds the source
// itself, an unreachable vertex and a repeat, and the runs share the
// solver's pooled scratches with the row and with each other.
func FuzzDistToVsRow(f *testing.F) {
	f.Add(uint64(1), 16, 30, uint8(0), []byte{3, 9, 3})
	f.Add(uint64(7), 40, 120, uint8(1), []byte{0, 39, 41})
	f.Add(uint64(42), 3, 1, uint8(0), []byte{})
	f.Add(uint64(99), 25, 0, uint8(1), []byte{24, 24})
	f.Add(uint64(5), 60, 240, uint8(2), []byte{7, 59, 31})
	f.Add(uint64(13), 120, 600, uint8(1), []byte{1, 119, 60})
	f.Add(uint64(3), 80, 400, uint8(3), []byte{2, 79, 40})
	f.Fuzz(func(t *testing.T, seed uint64, n, m int, family uint8, raw []byte) {
		if n < 1 || n > 200 || m < 0 || m > 2000 || len(raw) > 64 {
			t.Skip()
		}
		g, err := graph.New(n+2, graph.GNM(n, m, fuzzWeight(family), seed).Edges())
		if err != nil {
			t.Fatal(err)
		}
		src := int(seed % uint64(n))
		targets := []int{src, n + 1}
		for _, b := range raw {
			targets = append(targets, int(b)%g.N())
		}
		targets = append(targets, targets[len(targets)-1])
		s := NewSolver(g, SolverOptions{})
		row := s.RowInto(src, nil)
		for _, v := range targets {
			if got := s.DistTo(src, v); math.Float64bits(got) != math.Float64bits(row[v]) {
				t.Fatalf("seed=%d n=%d m=%d family=%d src=%d: DistTo(%d) = %v, row says %v",
					seed, n, m, family%4, src, v, got, row[v])
			}
		}
	})
}

// FuzzDeltaVsHeap derives a random weighted graph from the fuzz input and
// checks the exactness contract, on fuzzWeight's families.
func FuzzDeltaVsHeap(f *testing.F) {
	f.Add(uint64(1), 16, 30, uint8(0))
	f.Add(uint64(7), 40, 120, uint8(1))
	f.Add(uint64(42), 3, 1, uint8(0))
	f.Add(uint64(99), 25, 0, uint8(1))
	f.Add(uint64(3), 80, 400, uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n, m int, family uint8) {
		if n < 1 || n > 200 || m < 0 || m > 2000 {
			t.Skip()
		}
		g := graph.GNM(n, m, fuzzWeight(family), seed)
		s := NewSolver(g, SolverOptions{Engine: EngineDelta})
		src := int(seed % uint64(n))
		requireRowEqual(t, Dijkstra(g, src), s.Row(src),
			fmt.Sprintf("fuzz seed=%d n=%d m=%d family=%d", seed, n, m, family%4))
	})
}
