package dist

import "mpcspanner/internal/graph"

// Dijkstra returns the shortest-path distances from src to every vertex of
// g. Unreachable vertices get Inf. The returned slice is freshly allocated
// and owned by the caller; the run's internal state (the frontier heap)
// comes from the per-size scratch pool, so repeated calls allocate only the
// row they return. Callers that also own the row's memory — the warm paths
// of the oracle and the APSP verifiers — use DijkstraInto and allocate
// nothing.
func Dijkstra(g *graph.Graph, src int) []float64 {
	return DijkstraInto(g, src, nil)
}

// DijkstraInto is Dijkstra writing into d, which is returned. A d of the
// wrong length (nil included) is replaced by a fresh allocation; passing a
// reused g.N()-sized buffer makes the steady-state call allocation-free —
// the pooled-scratch contract the warm-Dijkstra benchmark pins.
func DijkstraInto(g *graph.Graph, src int, d []float64) []float64 {
	n := g.N()
	if len(d) != n {
		d = make([]float64, n)
	}
	for i := range d {
		d[i] = Inf
	}
	d[src] = 0
	s := acquire(n)
	s.heap.push(0, int32(src))
	s.run(g, d)
	s.release()
	return d
}

// run drains the heap, settling labels into d.
func (s *scratch) run(g *graph.Graph, d []float64) {
	h := &s.heap
	for h.len() > 0 {
		it := h.pop()
		v := int(it.v)
		if it.d > d[v] {
			continue // stale entry
		}
		for _, a := range g.Adj(v) {
			nd := it.d + g.Edge(a.Edge).W
			if nd < d[a.To] {
				d[a.To] = nd
				h.push(nd, int32(a.To))
			}
		}
	}
}
