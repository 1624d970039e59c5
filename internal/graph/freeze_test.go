package graph

import (
	"math"
	"strings"
	"testing"
)

// TestCSRRoundTripsThroughAdopt pins the freeze/adopt contract the artifact
// layer depends on: CSR's slices fed back into Adopt reproduce the graph.
func TestCSRRoundTripsThroughAdopt(t *testing.T) {
	g := Connectify(GNP(300, 0.03, UniformWeight(1, 9), 7), 9)
	off, arcs := CSR(g)
	got, err := Adopt(g.N(), g.Edges(), off, arcs)
	if err != nil {
		t.Fatalf("Adopt rejected CSR output: %v", err)
	}
	if got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("shape: got (%d,%d), want (%d,%d)", got.N(), got.M(), g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		wa, ga := g.Adj(v), got.Adj(v)
		if len(wa) != len(ga) {
			t.Fatalf("vertex %d: degree %d, want %d", v, len(ga), len(wa))
		}
		for i := range wa {
			if wa[i] != ga[i] {
				t.Fatalf("vertex %d arc %d: got %+v, want %+v", v, i, ga[i], wa[i])
			}
		}
	}
}

// TestAdoptValidation feeds Adopt every class of impossible graph a
// well-formed (checksummed) artifact could still describe.
func TestAdoptValidation(t *testing.T) {
	// A valid 3-vertex path 0-1-2 as the base case.
	edges := []Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}}
	off := []int32{0, 1, 3, 4}
	arcs := []Arc{{To: 1, Edge: 0}, {To: 0, Edge: 0}, {To: 2, Edge: 1}, {To: 1, Edge: 1}}
	if _, err := Adopt(3, edges, off, arcs); err != nil {
		t.Fatalf("Adopt rejected a valid graph: %v", err)
	}

	cases := []struct {
		name    string
		n       int
		edges   []Edge
		off     []int32
		arcs    []Arc
		wantSub string
	}{
		{"negative n", -1, nil, nil, nil, "negative vertex count"},
		{"off length", 3, edges, []int32{0, 1, 4}, arcs, "offset slice has 3 entries"},
		{"arc count", 3, edges, off, arcs[:3], "want exactly 2 per edge"},
		{"endpoint range", 3, []Edge{{U: 0, V: 3, W: 1}, {U: 1, V: 2, W: 2}}, off, arcs, "out of range"},
		{"self loop", 3, []Edge{{U: 1, V: 1, W: 1}, {U: 1, V: 2, W: 2}}, off, arcs, "self-loop"},
		{"zero weight", 3, []Edge{{U: 0, V: 1, W: 0}, {U: 1, V: 2, W: 2}}, off, arcs, "non-positive weight"},
		{"nan weight", 3, []Edge{{U: 0, V: 1, W: math.NaN()}, {U: 1, V: 2, W: 2}}, off, arcs, "non-positive weight"},
		{"infinite weight", 3, []Edge{{U: 0, V: 1, W: math.Inf(1)}, {U: 1, V: 2, W: 2}}, off, arcs, "infinite weight"},
		{"weight sum overflows", 3, []Edge{{U: 0, V: 1, W: 1e308}, {U: 1, V: 2, W: 1e308}}, off, arcs, "weight sum overflows"},
		{"off start", 3, edges, []int32{1, 1, 3, 4}, arcs, "offsets start at 1"},
		{"off end", 3, edges, []int32{0, 1, 3, 3}, arcs, "offsets end at 3"},
		{"off decreasing", 3, edges, []int32{0, 3, 1, 4}, arcs, "offsets decrease"},
		{"arc edge range", 3, edges, off,
			[]Arc{{To: 1, Edge: 0}, {To: 0, Edge: 0}, {To: 2, Edge: 5}, {To: 1, Edge: 1}}, "names edge 5"},
		{"arc wrong endpoint", 3, edges, off,
			[]Arc{{To: 1, Edge: 0}, {To: 0, Edge: 0}, {To: 0, Edge: 1}, {To: 1, Edge: 1}}, "not an endpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Adopt(tc.n, tc.edges, tc.off, tc.arcs)
			if err == nil {
				t.Fatal("Adopt accepted an impossible graph")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// TestAdoptEmpty pins the edge case artifacts of empty graphs hit.
func TestAdoptEmpty(t *testing.T) {
	g, err := Adopt(0, nil, []int32{0}, nil)
	if err != nil {
		t.Fatalf("Adopt rejected the empty graph: %v", err)
	}
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph shape: (%d,%d)", g.N(), g.M())
	}
	g, err = Adopt(5, nil, []int32{0, 0, 0, 0, 0, 0}, nil)
	if err != nil {
		t.Fatalf("Adopt rejected an edgeless graph: %v", err)
	}
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("edgeless graph shape: (%d,%d)", g.N(), g.M())
	}
}
