// Package graph provides the weighted undirected graph substrate every
// algorithm of the reproduced paper (§3–§8) runs on: a compact edge-list +
// CSR adjacency representation, synthetic workload generators, a
// disjoint-set forest, and plain-text I/O.
//
// Vertices are dense integers [0, N). Edges are undirected and stored once;
// the index of an edge in Edges is its stable identifier, which the spanner
// algorithms use to report exactly which input edges they selected.
//
// A Graph is immutable after construction and safe for concurrent readers —
// the property the parallel distance subsystem (internal/dist) and the
// cached oracle (internal/oracle) rely on for lock-free reads.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mpcspanner/internal/core"
)

// Edge is an undirected weighted edge. U and V are vertex indices and W is
// the weight, finite and positive. Algorithms treat the edge {U,V} and {V,U} as identical.
type Edge struct {
	U, V int
	W    float64
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x int) int {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: vertex %d is not an endpoint of edge %v", x, e))
}

// Arc is a half-edge in the CSR adjacency structure: the neighbor reached and
// the identifier (index into Graph.Edges) of the edge used.
type Arc struct {
	To   int
	Edge int
}

// Graph is an undirected weighted graph with a frozen CSR adjacency index.
// Construct with New or a Builder; a Graph is immutable after construction
// and safe for concurrent readers.
type Graph struct {
	n     int
	edges []Edge

	// CSR adjacency: arcs[off[v]:off[v+1]] are the half-edges of v.
	off  []int32
	arcs []Arc
}

// New builds a graph on n vertices from the given edges, which must lie in
// the weight domain (see checkEdge); parallel edges are allowed (spanner
// algorithms handle them). Every rejection is a *core.OptionError. The edge
// slice is retained; callers must not mutate it afterwards.
func New(n int, edges []Edge) (*Graph, error) {
	if err := checkEdges(n, edges); err != nil {
		return nil, err
	}
	g := &Graph{n: n, edges: edges}
	g.buildCSR()
	return g, nil
}

// checkEdge holds e to the weight domain of a graph on n vertices: both
// endpoints in [0, n) and distinct, the weight finite and positive, and the
// running weight sum *sum, to which it adds e.W, still finite. Every simple
// path is then, up to rounding, no longer than the total weight, so no
// distance overflows into the +Inf that means "unreachable". New, Adopt and
// ScanEdges all hold their edges to it, in edge-id order.
func checkEdge(n int, e Edge, sum *float64) error {
	switch {
	case e.U < 0 || e.U >= n || e.V < 0 || e.V >= n:
		return fmt.Errorf("endpoints (%d,%d) out of range [0,%d)", e.U, e.V, n)
	case e.U == e.V:
		return fmt.Errorf("self-loop at vertex %d", e.U)
	case !(e.W > 0):
		return fmt.Errorf("non-positive weight %v", e.W)
	case math.IsInf(e.W, 1):
		return errors.New("infinite weight")
	}
	if *sum += e.W; math.IsInf(*sum, 1) {
		return fmt.Errorf("weight sum overflows at weight %v", e.W)
	}
	return nil
}

// checkEdges is checkEdge over a whole edge list, as a *core.OptionError.
func checkEdges(n int, edges []Edge) error {
	if n < 0 {
		return &core.OptionError{Field: "graph: n", Value: n, Reason: "negative vertex count"}
	}
	var sum float64
	for i, e := range edges {
		if err := checkEdge(n, e, &sum); err != nil {
			return &core.OptionError{Field: fmt.Sprintf("graph: edge %d", i), Value: e, Reason: err.Error()}
		}
	}
	return nil
}

// MustNew is New but panics with its *core.OptionError; for tests and
// generators, whose inputs are valid unless their weights leave the domain.
func MustNew(n int, edges []Edge) *Graph {
	g, err := New(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func (g *Graph) buildCSR() {
	deg := make([]int32, g.n+1)
	for _, e := range g.edges {
		deg[e.U+1]++
		deg[e.V+1]++
	}
	for i := 0; i < g.n; i++ {
		deg[i+1] += deg[i]
	}
	g.off = deg
	g.arcs = make([]Arc, 2*len(g.edges))
	cursor := make([]int32, g.n)
	copy(cursor, g.off[:g.n])
	for id, e := range g.edges {
		g.arcs[cursor[e.U]] = Arc{To: e.V, Edge: id}
		cursor[e.U]++
		g.arcs[cursor[e.V]] = Arc{To: e.U, Edge: id}
		cursor[e.V]++
	}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the edge with identifier id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Adj returns the half-edges incident to v. Callers must not mutate it.
func (g *Graph) Adj(v int) []Arc { return g.arcs[g.off[v]:g.off[v+1]] }

// Degree returns the number of half-edges at v (parallel edges counted).
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, e := range g.edges {
		s += e.W
	}
	return s
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// IsUnit reports whether every edge has weight exactly 1.
func (g *Graph) IsUnit() bool {
	for _, e := range g.edges {
		if e.W != 1 {
			return false
		}
	}
	return true
}

// Subgraph returns the graph on the same vertex set containing exactly the
// edges whose identifiers appear in edgeIDs (duplicates are kept once).
func (g *Graph) Subgraph(edgeIDs []int) *Graph {
	ids := append([]int(nil), edgeIDs...)
	sort.Ints(ids)
	sub := make([]Edge, 0, len(ids))
	prev := -1
	for _, id := range ids {
		if id == prev {
			continue
		}
		prev = id
		sub = append(sub, g.edges[id])
	}
	return MustNew(g.n, sub)
}

// Components labels the connected components of g: the result maps each
// vertex to a component id in [0, count), and count is returned too.
func (g *Graph) Components() (label []int, count int) {
	label = make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	var stack []int
	for v := 0; v < g.n; v++ {
		if label[v] != -1 {
			continue
		}
		label[v] = count
		stack = append(stack[:0], v)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.Adj(x) {
				if label[a.To] == -1 {
					label[a.To] = count
					stack = append(stack, a.To)
				}
			}
		}
		count++
	}
	return label, count
}

// Connected reports whether g has at most one connected component.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	_, c := g.Components()
	return c <= 1
}

// Builder accumulates edges and produces a Graph. It deduplicates nothing;
// use it when generators may emit edges incrementally.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder { return &Builder{n: n} }

// AddEdge appends the undirected edge {u,v} with weight w.
func (b *Builder) AddEdge(u, v int, w float64) {
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
}

// Len returns the number of edges added so far.
func (b *Builder) Len() int { return len(b.edges) }

// Build validates and freezes the accumulated graph.
func (b *Builder) Build() (*Graph, error) { return New(b.n, b.edges) }

// MustBuild is Build but panics on error.
func (b *Builder) MustBuild() *Graph { return MustNew(b.n, b.edges) }
