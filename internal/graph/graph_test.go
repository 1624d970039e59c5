package graph

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mpcspanner/internal/core"
)

func TestNewValidation(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		ok    bool
	}{
		{"empty", 0, nil, true},
		{"single vertex", 1, nil, true},
		{"valid edge", 2, []Edge{{0, 1, 1}}, true},
		{"parallel edges allowed", 2, []Edge{{0, 1, 1}, {1, 0, 2}}, true},
		{"negative n", -1, nil, false},
		{"out of range", 2, []Edge{{0, 2, 1}}, false},
		{"negative endpoint", 2, []Edge{{-1, 0, 1}}, false},
		{"self loop", 2, []Edge{{1, 1, 1}}, false},
		{"zero weight", 2, []Edge{{0, 1, 0}}, false},
		{"negative weight", 2, []Edge{{0, 1, -3}}, false},
		{"infinite weight", 2, []Edge{{0, 1, math.Inf(1)}}, false},
		{"nan weight", 2, []Edge{{0, 1, math.NaN()}}, false},
		{"largest finite weight", 2, []Edge{{0, 1, math.MaxFloat64}}, true},
		// Each weight is finite, but their sum overflows to +Inf.
		{"weight sum overflows", 4, []Edge{{0, 1, 1e308}, {1, 2, 1e308}, {2, 3, 1}, {0, 3, 2}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := New(c.n, c.edges)
			if (err == nil) != c.ok {
				t.Fatalf("New(%d, %v) error = %v, want ok=%v", c.n, c.edges, err, c.ok)
			}
			if err != nil && !errors.Is(err, core.ErrInvalidOption) {
				t.Fatalf("New rejection %v does not match ErrInvalidOption", err)
			}
		})
	}
}

func TestAdjacencyMirrorsEdges(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 4}, {1, 3, 5}})
	// Every edge appears exactly once from each endpoint.
	seen := make(map[[2]int]int)
	for v := 0; v < g.N(); v++ {
		for _, a := range g.Adj(v) {
			seen[[2]int{v, a.Edge}]++
			e := g.Edge(a.Edge)
			if e.Other(v) != a.To {
				t.Fatalf("arc (%d->%d) inconsistent with edge %v", v, a.To, e)
			}
		}
	}
	for id, e := range g.Edges() {
		if seen[[2]int{e.U, id}] != 1 || seen[[2]int{e.V, id}] != 1 {
			t.Fatalf("edge %d not mirrored exactly once per endpoint", id)
		}
	}
}

func TestDegreeSum(t *testing.T) {
	g := GNP(200, 0.05, UnitWeight, 7)
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += g.Degree(v)
	}
	if sum != 2*g.M() {
		t.Fatalf("degree sum %d != 2m = %d", sum, 2*g.M())
	}
}

func TestOtherPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Other on non-endpoint should panic")
		}
	}()
	Edge{U: 0, V: 1, W: 1}.Other(2)
}

func TestSubgraph(t *testing.T) {
	g := MustNew(4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}})
	s := g.Subgraph([]int{0, 2, 2, 0})
	if s.N() != 4 || s.M() != 2 {
		t.Fatalf("subgraph n=%d m=%d", s.N(), s.M())
	}
	want := map[Edge]bool{{0, 1, 1}: true, {2, 3, 3}: true}
	for _, e := range s.Edges() {
		if !want[e] {
			t.Fatalf("unexpected subgraph edge %v", e)
		}
	}
}

func TestComponents(t *testing.T) {
	g := MustNew(6, []Edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}})
	label, count := g.Components()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatal("vertices 0,1,2 should share a component")
	}
	if label[3] != label[4] {
		t.Fatal("vertices 3,4 should share a component")
	}
	if label[5] == label[0] || label[5] == label[3] {
		t.Fatal("vertex 5 should be isolated")
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if !Cycle(10, UnitWeight, 1).Connected() {
		t.Fatal("cycle should be connected")
	}
}

func TestConnectify(t *testing.T) {
	g := MustNew(6, []Edge{{0, 1, 1}, {3, 4, 1}})
	c := Connectify(g, 2.5)
	if !c.Connected() {
		t.Fatal("Connectify result not connected")
	}
	// Components: {0,1}, {2}, {3,4}, {5} -> 3 bridges.
	if c.M() != g.M()+3 {
		t.Fatalf("added %d bridges, want 3", c.M()-g.M())
	}
	// Already connected graphs come back unchanged.
	cy := Cycle(5, UnitWeight, 1)
	if Connectify(cy, 1) != cy {
		t.Fatal("Connectify should return connected input as-is")
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(3, 4, UnitWeight, 1)
	if g.N() != 12 {
		t.Fatalf("n = %d", g.N())
	}
	// rows*(cols-1) horizontal + (rows-1)*cols vertical.
	if want := 3*3 + 2*4; g.M() != want {
		t.Fatalf("m = %d, want %d", g.M(), want)
	}
	if !g.Connected() {
		t.Fatal("grid should be connected")
	}
	// Corner degree 2, interior degree 4.
	if g.Degree(0) != 2 {
		t.Fatalf("corner degree %d", g.Degree(0))
	}
	if g.Degree(1*4+1) != 4 {
		t.Fatalf("interior degree %d", g.Degree(5))
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 5, UnitWeight, 1)
	if g.N() != 20 || g.M() != 40 {
		t.Fatalf("torus n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree %d, want 4", v, g.Degree(v))
		}
	}
}

func TestCompleteStarCyclePath(t *testing.T) {
	if g := Complete(6, UnitWeight, 1); g.M() != 15 {
		t.Fatalf("K6 edges %d", g.M())
	}
	if g := Star(6, UnitWeight, 1); g.M() != 5 || g.Degree(0) != 5 {
		t.Fatalf("star wrong: m=%d deg0=%d", g.M(), g.Degree(0))
	}
	if g := Cycle(6, UnitWeight, 1); g.M() != 6 {
		t.Fatalf("C6 edges %d", g.M())
	}
	if g := Cycle(2, UnitWeight, 1); g.M() != 1 {
		t.Fatalf("C2 edges %d (no parallel closing edge)", g.M())
	}
	if g := Path(6, UnitWeight, 1); g.M() != 5 {
		t.Fatalf("P6 edges %d", g.M())
	}
}

func TestGNPDeterministicAndPlausible(t *testing.T) {
	a := GNP(500, 0.02, UnitWeight, 42)
	b := GNP(500, 0.02, UnitWeight, 42)
	if a.M() != b.M() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.M(), b.M())
	}
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("same seed, edge %d differs", i)
		}
	}
	// Expected edges = p * C(500,2) = 0.02 * 124750 = 2495.
	if a.M() < 2100 || a.M() > 2900 {
		t.Fatalf("G(500,0.02) has %d edges, outside plausible band", a.M())
	}
	// No self loops, no out-of-range (validated by MustNew), distinct pairs.
	seen := make(map[[2]int]bool)
	for _, e := range a.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			t.Fatalf("duplicate pair (%d,%d) in GNP", u, v)
		}
		seen[[2]int{u, v}] = true
	}
}

func TestGNPEdgeCases(t *testing.T) {
	if g := GNP(10, 0, UnitWeight, 1); g.M() != 0 {
		t.Fatal("p=0 should generate no edges")
	}
	if g := GNP(10, 1, UnitWeight, 1); g.M() != 45 {
		t.Fatalf("p=1 should be complete, got %d edges", g.M())
	}
	if g := GNP(1, 0.5, UnitWeight, 1); g.M() != 0 {
		t.Fatal("single vertex should have no edges")
	}
}

func TestGNMExactCount(t *testing.T) {
	g := GNM(100, 300, UnitWeight, 9)
	if g.M() != 300 {
		t.Fatalf("GNM m = %d, want 300", g.M())
	}
	seen := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if seen[[2]int{u, v}] {
			t.Fatal("GNM emitted duplicate edge")
		}
		seen[[2]int{u, v}] = true
	}
	// Clamping.
	if g := GNM(4, 100, UnitWeight, 9); g.M() != 6 {
		t.Fatalf("GNM should clamp to C(4,2)=6, got %d", g.M())
	}
}

func TestRandomTree(t *testing.T) {
	g := RandomTree(200, UnitWeight, 3)
	if g.M() != 199 {
		t.Fatalf("tree edges %d", g.M())
	}
	if !g.Connected() {
		t.Fatal("tree should be connected")
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := PreferentialAttachment(300, 3, UnitWeight, 5)
	if !g.Connected() {
		t.Fatal("PA graph should be connected")
	}
	// Seed clique C(4,2)=6 plus 3 per additional vertex.
	want := 6 + 3*(300-4)
	if g.M() != want {
		t.Fatalf("PA edges %d, want %d", g.M(), want)
	}
	if g.MaxDegree() <= 3 {
		t.Fatal("PA should produce hubs with degree above d")
	}
	// Small n degenerates to a clique.
	if g := PreferentialAttachment(3, 3, UnitWeight, 5); g.M() != 3 {
		t.Fatalf("small PA should be K3, got %d edges", g.M())
	}
	// Deterministic under seed: edge order, endpoints and the weight drawn
	// for each edge all repeat.
	a := PreferentialAttachment(500, 4, ExpWeight(3), 11)
	b := PreferentialAttachment(500, 4, ExpWeight(3), 11)
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("PA edges differ between two builds with one seed")
	}
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(400, 0.12, true, UnitWeight, 6)
	for _, e := range g.Edges() {
		if e.W > 0.12+1e-12 {
			t.Fatalf("euclidean weight %v exceeds radius", e.W)
		}
	}
	// Deterministic under seed.
	h := RandomGeometric(400, 0.12, true, UnitWeight, 6)
	if g.M() != h.M() {
		t.Fatal("RGG not deterministic")
	}
}

func TestWeightFns(t *testing.T) {
	r := newTestSource()
	for i := 0; i < 1000; i++ {
		if w := UniformWeight(2, 5)(r); w < 2 || w >= 5 {
			t.Fatalf("uniform weight %v out of range", w)
		}
		if w := ExpWeight(3)(r); w < 1 {
			t.Fatalf("exp weight %v below 1", w)
		}
		w := PowerWeight(4, 3)(r)
		if w != 1 && w != 4 && w != 16 {
			t.Fatalf("power weight %v not in ladder", w)
		}
	}
}

func TestWeightFnPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"uniform empty":  func() { UniformWeight(5, 2) },
		"uniform nonpos": func() { UniformWeight(0, 2) },
		"exp nonpos":     func() { ExpWeight(0) },
		"power base":     func() { PowerWeight(1, 3) },
		"pa d":           func() { PreferentialAttachment(5, 0, UnitWeight, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestIORoundTrip(t *testing.T) {
	g := GNP(60, 0.1, UniformWeight(1, 10), 77)
	var sb strings.Builder
	if err := g.Write(&sb); err != nil {
		t.Fatal(err)
	}
	h, err := ReadFrom("roundtrip", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if h.N() != g.N() || h.M() != g.M() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d", h.N(), h.M(), g.N(), g.M())
	}
	for i := range g.Edges() {
		a, b := g.Edge(i), h.Edge(i)
		if a.U != b.U || a.V != b.V {
			t.Fatalf("edge %d endpoints changed", i)
		}
		if diff := a.W - b.W; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("edge %d weight drift %v vs %v", i, a.W, b.W)
		}
	}
}

// TestIOErrors holds ReadFrom to its *core.ArtifactError on malformed input.
// The artifact package's edge-list corpus checks that Convert agrees.
func TestIOErrors(t *testing.T) {
	bad := []string{
		"",                        // missing header
		"e 0 1 1\n",               // edge before header
		"n 2 1\n",                 // count mismatch
		"n 2 1\nx 0 1 1\n",        // unknown record
		"n 2 1\ne 0 5 1\n",        // invalid edge
		"n 1 0\nn 1 0\n",          // duplicate header
		"n -1 0\n",                // negative
		"n 2 1\ne zero one one\n", // unparsable edge
		"n 2 1\ne 0 1 Inf\n",      // infinite weight
	}
	for i, s := range bad {
		_, err := ReadFrom("bad", strings.NewReader(s))
		var ae *core.ArtifactError
		if !errors.As(err, &ae) {
			t.Fatalf("case %d (%q): want *core.ArtifactError, got %v", i, s, err)
		}
	}
	// Comments and blank lines are fine.
	ok := "# hello\n\nn 2 1\n# mid\ne 0 1 2.5\n"
	if _, err := ReadFrom("ok", strings.NewReader(ok)); err != nil {
		t.Fatalf("comment handling: %v", err)
	}
}

func TestTotalWeightAndIsUnit(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1, 1.5}, {1, 2, 2.5}})
	if g.TotalWeight() != 4 {
		t.Fatalf("total weight %v", g.TotalWeight())
	}
	if g.IsUnit() {
		t.Fatal("weighted graph reported unit")
	}
	if !Grid(2, 2, UnitWeight, 1).IsUnit() {
		t.Fatal("unit grid reported weighted")
	}
}

func TestQuickGNPSimple(t *testing.T) {
	f := func(seed uint64) bool {
		g := GNP(40, 0.15, UnitWeight, seed)
		seen := make(map[[2]int]bool)
		for _, e := range g.Edges() {
			if e.U == e.V || e.U < 0 || e.V >= 40 {
				return false
			}
			u, v := e.U, e.V
			if u > v {
				u, v = v, u
			}
			if seen[[2]int{u, v}] {
				return false
			}
			seen[[2]int{u, v}] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
