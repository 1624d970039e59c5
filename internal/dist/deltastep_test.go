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
// source (or a stride of sources for larger graphs), and DistsTo against the
// full row on a few target lists per source.
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
		requireDistsToMatchRow(t, s, src, got, ctx)
	}
}

// requireDistsToMatchRow checks DistsTo from src against row, the full row,
// on target lists that stop at different buckets: src alone, the farthest
// reachable vertex alone, one other vertex alone, and all three with
// repeats.
func requireDistsToMatchRow(t *testing.T, s *Solver, src int, row []float64, ctx string) {
	t.Helper()
	far := src
	for v, d := range row {
		if d != Inf && d > row[far] {
			far = v
		}
	}
	other := (src + 1) % len(row)
	for _, targets := range [][]int{{src}, {far}, {other}, {other, far, src, other, far}} {
		got := s.DistsTo(src, targets, nil)
		for i, v := range targets {
			if math.Float64bits(got[i]) != math.Float64bits(row[v]) {
				t.Fatalf("%s: DistsTo(%v)[%d] = %v, full row says d[%d] = %v", ctx, targets, i, got[i], v, row[v])
			}
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
// and agree with the heap.
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

	// A one-target DistsTo is no row fill, and both of its sides count. On a
	// unit-weight path from one end to the other, the forward side alone
	// improves exactly n−1 labels, once each; the backward side's come on
	// top.
	reg = obs.NewRegistry()
	path := graph.Path(64, graph.UnitWeight, 1)
	s = NewSolver(path, SolverOptions{Engine: EngineDelta, Metrics: reg})
	if d := s.DistsTo(0, []int{63}, nil)[0]; d != 63 {
		t.Fatalf("DistsTo(0, [63]) on a unit path = %v; want 63", d)
	}
	if v := reg.Counter("dist_sssp_rows_total").Value(); v != 0 {
		t.Fatalf("one-target DistsTo counted %d rows; want 0", v)
	}
	if v := reg.Counter("dist_delta_relaxations_total").Value(); v <= 63 {
		t.Fatalf("one-target DistsTo counted %d relaxations; want more than the forward side's 63", v)
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

// TestDistsToSettlesTargets checks target-bounded runs against the full row
// on a connected graph, including a repeated target and the source itself,
// and that an unreachable target ends the run with Inf.
func TestDistsToSettlesTargets(t *testing.T) {
	g := graph.Connectify(graph.GNP(300, 0.02, graph.UniformWeight(1, 60), 29), 30)
	s := NewSolver(g, SolverOptions{})
	full := Dijkstra(g, 0)
	targets := []int{1, g.N() / 3, g.N() - 1, 0, 1}
	for _, s := range []*Solver{s, NewSolver(g, SolverOptions{Engine: EngineHeap})} {
		d := s.DistsTo(0, targets, nil)
		for i, v := range targets {
			if d[i] != full[v] {
				t.Fatalf("%v: target-bounded distance to %d is %v, full run says %v", s.Engine(), v, d[i], full[v])
			}
		}
	}
	// Unreachable target: the run must terminate and report Inf, and the
	// reachable target beside it must still be exact.
	ti := twoIslands()
	d := NewSolver(ti, SolverOptions{}).DistsTo(0, []int{4, 2}, nil)
	if !math.IsInf(d[0], 1) || d[1] != Dijkstra(ti, 0)[2] {
		t.Fatalf("DistsTo(0, [4 2]) on two islands = %v", d)
	}
	if got := s.DistsTo(0, nil, nil); len(got) != 0 {
		t.Fatalf("empty target list answered %v", got)
	}
}

// TestDistsToReusedScratch pins the recycling discipline: back-to-back
// target-bounded runs on one solver must not leak buckets or queue state
// between runs, whether the previous run stopped early or ran to the end.
func TestDistsToReusedScratch(t *testing.T) {
	g := graph.Connectify(graph.GNP(300, 0.02, graph.UniformWeight(1, 60), 31), 17)
	s := NewSolver(g, SolverOptions{})
	out := make([]float64, 3)
	for src := 0; src < 12; src++ {
		full := Dijkstra(g, src)
		targets := []int{(src + 7) % g.N(), (src * 13) % g.N(), src}
		d := s.DistsTo(src, targets, out)
		if &d[0] != &out[0] {
			t.Fatal("DistsTo must fill the provided right-sized buffer")
		}
		for i, v := range targets {
			if d[i] != full[v] {
				t.Fatalf("run %d: target-bounded distance to %d is %v, full run says %v", src, v, d[i], full[v])
			}
		}
		if src%3 == 0 {
			s.Row(src) // interleave full rows on the same pooled scratch
		}
	}
}

// TestDistsToAllocationFree pins the pooled-row contract: with a reused
// output buffer, a steady-state target-bounded run allocates nothing.
func TestDistsToAllocationFree(t *testing.T) {
	if raceEnabled { // under -race, sync.Pool drops entries by design
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := graph.Connectify(graph.GNP(500, 8.0/500, graph.UniformWeight(1, 100), 51), 50)
	s := NewSolver(g, SolverOptions{})
	// Three targets take the forward loop, one takes the two-sided search,
	// which draws two scratches and two rows from the pool.
	for _, targets := range [][]int{{7, 250, 499}, {250}} {
		out := make([]float64, len(targets))
		s.DistsTo(1, targets, out) // warm the pool and the pooled rows
		if allocs := testing.AllocsPerRun(20, func() { s.DistsTo(1, targets, out) }); allocs > 0 {
			t.Fatalf("warm DistsTo(%v) allocates %v objects per run; want 0", targets, allocs)
		}
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
			requireDistsToMatchRow(t, s, src, row, what)
		}
	}
}

// FuzzDistsToVsRow derives a random graph with two isolated vertices, a
// source and a target list from the fuzz input, and checks DistsTo against
// RowInto bit for bit: on the whole list, which always carries a repeat, the
// source itself and an unreachable vertex, and on each of its targets alone,
// which takes the two-sided path. Weights are uniform, a wide-range power
// ladder, or small integers, where ties abound.
func FuzzDistsToVsRow(f *testing.F) {
	f.Add(uint64(1), 16, 30, uint8(0), []byte{3, 9, 3})
	f.Add(uint64(7), 40, 120, uint8(1), []byte{0, 39, 41})
	f.Add(uint64(42), 3, 1, uint8(0), []byte{})
	f.Add(uint64(99), 25, 0, uint8(1), []byte{24, 24})
	f.Add(uint64(5), 60, 240, uint8(2), []byte{7, 59, 31})
	f.Add(uint64(13), 120, 600, uint8(1), []byte{1, 119, 60})
	f.Fuzz(func(t *testing.T, seed uint64, n, m int, family uint8, raw []byte) {
		if n < 1 || n > 200 || m < 0 || m > 2000 || len(raw) > 64 {
			t.Skip()
		}
		w := graph.UniformWeight(0.1, 10)
		switch family % 3 {
		case 1:
			w = graph.PowerWeight(4, 12)
		case 2:
			w = func(r *xrand.Source) float64 { return float64(1 + r.Intn(4)) }
		}
		g, err := graph.New(n+2, graph.GNM(n, m, w, seed).Edges())
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
		got := s.DistsTo(src, targets, nil)
		for i, v := range targets {
			one := s.DistsTo(src, []int{v}, nil)[0]
			for _, x := range []float64{got[i], one} {
				if math.Float64bits(x) != math.Float64bits(row[v]) {
					t.Fatalf("seed=%d n=%d m=%d family=%d src=%d: DistsTo(%v)[%d] = %v, DistsTo([%d]) = %v, row says d[%d] = %v",
						seed, n, m, family%3, src, targets, i, got[i], v, one, v, row[v])
				}
			}
		}
	})
}

// FuzzDeltaVsHeap derives a random weighted graph from the fuzz input and
// checks the exactness contract.
func FuzzDeltaVsHeap(f *testing.F) {
	f.Add(uint64(1), 16, 30, false)
	f.Add(uint64(7), 40, 120, true)
	f.Add(uint64(42), 3, 1, false)
	f.Add(uint64(99), 25, 0, true)
	f.Fuzz(func(t *testing.T, seed uint64, n, m int, heavyTail bool) {
		if n < 1 || n > 200 || m < 0 || m > 2000 {
			t.Skip()
		}
		w := graph.UniformWeight(0.1, 10)
		if heavyTail {
			w = graph.PowerWeight(4, 12)
		}
		g := graph.GNM(n, m, w, seed)
		s := NewSolver(g, SolverOptions{Engine: EngineDelta})
		src := int(seed % uint64(n))
		requireRowEqual(t, Dijkstra(g, src), s.Row(src),
			fmt.Sprintf("fuzz seed=%d n=%d m=%d", seed, n, m))
	})
}
