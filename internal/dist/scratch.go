package dist

import "sync"

// This file is the memory discipline of the heap runs: every heap
// shortest-path run draws its mutable state — the frontier heap, and for
// internal read-then-discard runs the distance array — from a sync.Pool
// keyed by the vertex count, so repeated runs stop paying one heap growth and
// one O(n) allocation per source. A result that outlives the call, such as
// Dijkstra's returned row, is still freshly allocated; only state whose
// lifetime ends inside this package is pooled. Delta-stepping runs pool their
// state per Solver (deltaScratch).

// heapItem is a (distance, vertex) pair on the Dijkstra frontier.
type heapItem struct {
	d float64
	v int32
}

// heap4 is a 4-ary min-heap of heapItems ordered by distance, with a
// reusable backing store. Four-way branching halves the tree depth of the
// binary heap it replaces: pushes (the dominant operation under lazy
// deletion) compare against half as many ancestors, and the wider node
// stays within one cache line of items. Stale entries are tolerated (lazy
// deletion): a popped item whose distance exceeds the settled label is
// skipped by the caller. This beats container/heap by avoiding interface
// dispatch on the hot path.
type heap4 struct {
	items []heapItem
}

func (h *heap4) len() int { return len(h.items) }

func (h *heap4) reset() { h.items = h.items[:0] }

func (h *heap4) push(d float64, v int32) {
	h.items = append(h.items, heapItem{d, v})
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h.items[p].d <= d {
			break
		}
		h.items[i] = h.items[p]
		i = p
	}
	h.items[i] = heapItem{d, v}
}

func (h *heap4) pop() heapItem {
	items := h.items
	top := items[0]
	n := len(items) - 1
	last := items[n]
	h.items = items[:n]
	i := 0
	for {
		s := -1
		sd := last.d
		c := 4*i + 1
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if items[c].d < sd {
				s = c
				sd = items[c].d
			}
		}
		if s < 0 {
			break
		}
		items[i] = items[s]
		i = s
	}
	if n > 0 {
		items[i] = last
	}
	return top
}

// scratch is the reusable per-run state of a shortest-path execution, sized
// for an n-vertex graph. dist backs the internal read-then-discard rows (the
// pair-stretch estimators, a heap Solver's DistTo); the heap backs every
// heap run.
type scratch struct {
	pool *sync.Pool // owning pool, for release

	heap heap4
	dist []float64 // pooled distance row (internal runs only)
}

// pools maps the vertex count n to the *sync.Pool of scratches sized n.
// Distinct graph sizes pool separately so a scratch is always right-sized.
var pools sync.Map

// acquire returns a scratch for an n-vertex run, reusing a pooled one when
// available. Callers must release it on every path out.
func acquire(n int) *scratch {
	p, ok := pools.Load(n)
	if !ok {
		p, _ = pools.LoadOrStore(n, &sync.Pool{})
	}
	pool := p.(*sync.Pool)
	if s, ok := pool.Get().(*scratch); ok {
		s.heap.reset()
		return s
	}
	return &scratch{pool: pool, dist: make([]float64, n)}
}

// release returns the scratch to its pool.
func (s *scratch) release() { s.pool.Put(s) }
