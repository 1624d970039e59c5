// Package cluster provides the clustering machinery shared by the spanner
// algorithms: the original-vertex → supernode partition maintained across
// contractions (Definition 5.1's quotient graphs), supernode-level edges
// carrying their originating edge identifier, min-weight deduplication
// (Step C of the general algorithm), and measurement of cluster-tree radii
// (Definitions 4.2/5.2) for the stretch accounting.
package cluster

import (
	"fmt"
	"math/bits"

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

// MinDedupWorkers keeps, for every unordered supernode pair, only the
// minimum-weight edge (ties broken by original edge id, for determinism).
// This is Step C's "keep the minimum weight edge between u and v" rule; the
// discarded parallels are spanned through the kept representative. Input
// order is not preserved; the result is sorted by (min endpoint, max
// endpoint). The endpoint normalization and the sort run on a worker pool
// (par.SortStable); the comparison key (A, B, W, Orig) is a total order on
// any edge list with distinct Orig ids, so the output is bit-identical at
// every worker count.
func MinDedupWorkers(edges []QEdge, workers int) []QEdge {
	return minDedup(edges, workers, nil, nil)
}

// KeyWidths returns the bit widths a (vertex, vertex, weight-rank) composite
// key needs for an n-vertex, m-edge instance — vBits per vertex field, rBits
// for the WeightRanks rank — and whether the composite fits one uint64. Both
// the MPC driver's tuple encodings and the engine's dedup key derive their
// layouts here, so the two planes can never drift apart.
func KeyWidths(n, m int) (vBits, rBits uint, ok bool) {
	if n < 2 || m < 1 {
		return 0, 0, false
	}
	vBits = uint(bits.Len(uint(n - 1)))
	rBits = uint(bits.Len(uint(m - 1)))
	if rBits == 0 { // m == 1: rank is always 0, give it one real bit
		rBits = 1
	}
	return vBits, rBits, 2*vBits+rBits <= 64
}

// MinDedupKeys is MinDedupWorkers with the (A, B, W, Orig) comparator
// replaced by a caller-supplied order-preserving uint64 key over the
// endpoint-normalized edge (A ≤ B when key is evaluated): the sort becomes
// one par radix shuffle instead of a comparison merge sort. key must encode
// the same total order the comparator defines — (A, B, weight-rank)
// composites built on WeightRanks and laid out per KeyWidths do (see the
// spanner engine) — or the dedup picks different representatives. key is
// invoked concurrently and must be pure. rs, when non-nil, is the retained
// radix scratch to sort with (callers deduping once per epoch keep one);
// nil uses a throwaway.
func MinDedupKeys(edges []QEdge, workers int, key func(*QEdge) uint64, rs *par.RadixSorter) []QEdge {
	if rs == nil {
		rs = new(par.RadixSorter)
	}
	return minDedup(edges, workers, key, rs)
}

func minDedup(edges []QEdge, workers int, key func(*QEdge) uint64, rs *par.RadixSorter) []QEdge {
	if len(edges) == 0 {
		return edges
	}
	w := par.Workers(workers)
	norm := make([]QEdge, len(edges))
	par.For(w, len(edges), func(i int) {
		e := edges[i]
		if e.A > e.B {
			e.A, e.B = e.B, e.A
		}
		norm[i] = e
	})
	if key == nil {
		par.SortStable(w, norm, func(a, b *QEdge) bool {
			if a.A != b.A {
				return a.A < b.A
			}
			if a.B != b.B {
				return a.B < b.B
			}
			if a.W != b.W {
				return a.W < b.W
			}
			return a.Orig < b.Orig
		})
	} else {
		idx := rs.SortIndexByKey(w, len(norm), func(i int) uint64 { return key(&norm[i]) })
		sorted := make([]QEdge, len(norm))
		par.For(w, len(norm), func(i int) { sorted[i] = norm[idx[i]] })
		norm = sorted
	}
	out := norm[:0]
	for i, e := range norm {
		if i > 0 && e.A == norm[i-1].A && e.B == norm[i-1].B {
			continue
		}
		out = append(out, e)
	}
	return out
}

// WeightRanks returns, for every edge id of g, its rank under the
// (weight, id) lexicographic order — the order-preserving surrogate that
// lets a single uint64 carry a (vertex, vertex, weight, id) comparator:
// rank[i] < rank[j] ⇔ (W_i, i) < (W_j, j). Ranks are dense in [0, M), so
// they fit ⌈log₂ M⌉ key bits where the raw (weight, id) pair needed 96.
// Computed with one radix shuffle over the Float64Key-mapped weights
// (stable, so equal weights rank by id); deterministic at every worker
// count.
func WeightRanks(g *graph.Graph, workers int) []uint32 {
	m := g.M()
	w := par.Workers(workers)
	idx := par.SortIndexByKey(w, m, func(i int) uint64 { return par.Float64Key(g.Edge(i).W) })
	rank := make([]uint32, m)
	par.For(w, m, func(r int) { rank[idx[r]] = uint32(r) })
	return rank
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
