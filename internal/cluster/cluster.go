// Package cluster provides the clustering machinery shared by the spanner
// algorithms: the original-vertex → supernode partition maintained across
// contractions (Definition 5.1's quotient graphs), supernode-level edges
// carrying their originating edge identifier, min-weight deduplication
// (Step C of the general algorithm), and measurement of cluster-tree radii
// (Definitions 4.2/5.2) for the stretch accounting.
package cluster

import (
	"fmt"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/par"
)

// None marks a vertex or supernode that is not assigned (finished).
const None = -1

// Partition maps original vertices to supernodes of the current quotient
// graph. Initially the identity; each ContractWorkers call replaces
// supernodes by the clusters that absorbed them.
type Partition struct {
	super []int32
	count int
}

// NewPartition returns the identity partition on n vertices.
func NewPartition(n int) *Partition {
	p := &Partition{super: make([]int32, n), count: n}
	for i := range p.super {
		p.super[i] = int32(i)
	}
	return p
}

// Super returns the supernode containing original vertex v, or None if v has
// been finished (dropped out of every cluster).
func (p *Partition) Super(v int) int { return int(p.super[v]) }

// Count returns the number of live supernodes.
func (p *Partition) Count() int { return p.count }

// N returns the number of original vertices.
func (p *Partition) N() int { return len(p.super) }

// ContractWorkers applies a supernode relabeling: old supernode s becomes
// newID[s], where newID[s] == None finishes every vertex of s. newCount is
// the number of distinct new supernode ids, which must be exactly the set
// {0, …, newCount-1} across the non-None entries. The per-vertex relabeling
// pass fans out over a worker pool (each vertex writes only its own slot, so
// the result is identical at every worker count). workers follows the par
// conventions: 0 selects GOMAXPROCS, 1 runs serially.
func (p *Partition) ContractWorkers(newID []int32, newCount, workers int) error {
	for s, id := range newID {
		if id != None && (id < 0 || int(id) >= newCount) {
			return fmt.Errorf("cluster: supernode %d relabeled to out-of-range %d (count %d)", s, id, newCount)
		}
	}
	par.For(par.Workers(workers), len(p.super), func(v int) {
		if s := p.super[v]; s != None {
			p.super[v] = newID[s]
		}
	})
	p.count = newCount
	return nil
}

// Members returns, for each supernode, the original vertices it contains.
func (p *Partition) Members() [][]int {
	m := make([][]int, p.count)
	for v, s := range p.super {
		if s != None {
			m[s] = append(m[s], v)
		}
	}
	return m
}

// QEdge is an edge of the current quotient graph: supernode endpoints A, B,
// the weight W, and Orig, the identifier of the original edge it represents.
type QEdge struct {
	A, B int
	W    float64
	Orig int
}

// FromGraph lifts g's edges into quotient edges over the identity partition.
func FromGraph(g *graph.Graph) []QEdge {
	out := make([]QEdge, g.M())
	for i, e := range g.Edges() {
		out[i] = QEdge{A: e.U, B: e.V, W: e.W, Orig: i}
	}
	return out
}

// MinDedup keeps, for every unordered supernode pair, only the edge least
// by (weight, original edge id). This is Step C's "keep the minimum weight
// edge between u and v" rule; the discarded parallels are spanned through
// the kept representative. Input order is not preserved: the result holds
// one endpoint-normalized edge (A ≤ B) per pair, sorted by (A, B).
//
// The sort keys each edge by its normalized endpoint pair alone, one stable
// radix shuffle on a worker pool (the sorter skips the key bytes no edge
// sets), and the (weight, id) minimum of each pair is taken in the scan
// that reads the pair's run. Pairs and minima are unique, so the output is
// bit-identical at every worker count. rs, when non-nil, is the retained
// radix scratch to sort with (callers deduping once per epoch keep one);
// nil uses a throwaway.
func MinDedup(edges []QEdge, workers int, rs *par.RadixSorter) []QEdge {
	if len(edges) == 0 {
		return edges
	}
	if rs == nil {
		rs = new(par.RadixSorter)
	}
	w := par.Workers(workers)
	idx := rs.SortIndexByKey(w, len(edges), func(i int) uint64 {
		a, b := edges[i].A, edges[i].B
		return uint64(min(a, b))<<32 | uint64(max(a, b))
	})
	out := make([]QEdge, 0, len(edges))
	for _, i := range idx {
		e := edges[i]
		e.A, e.B = min(e.A, e.B), max(e.A, e.B)
		if last := len(out) - 1; last >= 0 && out[last].A == e.A && out[last].B == e.B {
			if e.W < out[last].W || e.W == out[last].W && e.Orig < out[last].Orig {
				out[last] = e
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// TreeStats measures the rooted cluster trees formed by the merge edges. The
// forest is given as original-edge ids; roots are original vertices (cluster
// centers). For every root, the depth is measured over the connected
// component containing it; MaxHops and MaxWeighted aggregate over all roots.
//
// In the terminology of Definition 5.2, the merge-edge forest restricted to a
// final cluster's vertices is exactly the composed tree T(c) on the original
// graph, so this measures the radius the stretch analysis reasons about.
type TreeStats struct {
	MaxHops     int
	MaxWeighted float64
}

// MeasureTrees computes TreeStats for the given forest and roots.
func MeasureTrees(g *graph.Graph, forestEdges []int, roots []int) TreeStats {
	adj := make(map[int][]graph.Arc)
	for _, id := range forestEdges {
		e := g.Edge(id)
		adj[e.U] = append(adj[e.U], graph.Arc{To: e.V, Edge: id})
		adj[e.V] = append(adj[e.V], graph.Arc{To: e.U, Edge: id})
	}
	var st TreeStats
	type entry struct {
		v    int
		hops int
		w    float64
	}
	visited := make(map[int]bool)
	for _, root := range roots {
		if visited[root] {
			continue
		}
		queue := []entry{{v: root}}
		visited[root] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if cur.hops > st.MaxHops {
				st.MaxHops = cur.hops
			}
			if cur.w > st.MaxWeighted {
				st.MaxWeighted = cur.w
			}
			for _, a := range adj[cur.v] {
				if visited[a.To] {
					continue
				}
				visited[a.To] = true
				queue = append(queue, entry{v: a.To, hops: cur.hops + 1, w: cur.w + g.Edge(a.Edge).W})
			}
		}
	}
	return st
}
