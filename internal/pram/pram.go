// Package pram provides the CRCW PRAM work/depth cost model of Section 6's
// PRAM discussion: the spanner algorithms run against it and are billed the
// depths of the [BS07] primitives — hashing, semisorting, and generalized
// find-min each cost O(log* n) depth, while the union-find-style cluster
// merge costs O(1) depth (leader pointers are rewritten in parallel).
//
// The paper's claim reproduced here (experiment T11): the general algorithm
// has PRAM depth equal to its MPC iteration count times an O(log* n) factor,
// with total work Õ(m) — i.e. depth o(k) for every t, which no previous
// spanner construction achieved.
package pram

import (
	"context"
	"fmt"
	"math"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/par"
	"mpcspanner/internal/spanner"
)

// LogStar returns the iterated logarithm of n (number of times log₂ must be
// applied before the value drops to at most 1), with LogStar(n) ≥ 1 for
// n ≥ 2 so that primitive depths never vanish.
func LogStar(n float64) int {
	if n <= 2 {
		return 1
	}
	s := 0
	for n > 1 {
		n = math.Log2(n)
		s++
	}
	return s
}

// Costs accumulates work and depth.
type Costs struct {
	Work  int64
	Depth int64
}

// Sim is the accounting machine. Primitives add to Work and Depth; callers
// compose them exactly as the algorithm schedules parallel steps.
type Sim struct {
	n       int
	logStar int64
	c       Costs
}

// New returns a PRAM cost model for inputs of size parameter n.
func New(n int) *Sim {
	return &Sim{n: n, logStar: int64(LogStar(float64(n)))}
}

// Costs returns the accumulated bill.
func (s *Sim) Costs() Costs { return s.c }

// ParallelFor charges one parallel step over `items` processors doing
// constant work each.
func (s *Sim) ParallelFor(items int) {
	s.c.Depth++
	s.c.Work += int64(items)
}

// Semisort charges a [BS07] semisorting of `items` records: O(log* n) depth,
// linear work.
func (s *Sim) Semisort(items int) {
	s.c.Depth += s.logStar
	s.c.Work += int64(items)
}

// FindMin charges a generalized find-minimum over `items` records grouped by
// key: O(log* n) depth, linear work.
func (s *Sim) FindMin(items int) {
	s.c.Depth += s.logStar
	s.c.Work += int64(items)
}

// Hash charges a hashing pass: O(log* n) depth, linear work.
func (s *Sim) Hash(items int) {
	s.c.Depth += s.logStar
	s.c.Work += int64(items)
}

// Merge charges the cluster-merge primitive: leader pointers of `items`
// vertices rewritten in one parallel step (the union-find-like structure of
// Section 6's PRAM paragraph).
func (s *Sim) Merge(items int) {
	s.c.Depth++
	s.c.Work += int64(items)
}

// SpannerCostsWorkers runs spanner.GeneralCtx(k, t) on g and returns the
// spanner together with the PRAM bill of executing the same schedule with
// the [BS07] primitives: every grow iteration is one hashing pass, one
// semisort, one generalized find-min and one merge over the live edges;
// every contraction is one semisort plus a relabeling ParallelFor. The step
// loop runs on a pool of `workers` (par conventions: 0 = GOMAXPROCS,
// 1 = serial; negatives rejected). The work/depth bill models the CRCW PRAM
// regardless of the real pool, and both the spanner and the bill are
// bit-identical at every worker count.
func SpannerCostsWorkers(g *graph.Graph, k, t int, seed uint64, workers int) (*spanner.Result, Costs, error) {
	if k < 1 || t < 1 {
		return nil, Costs{}, fmt.Errorf("pram: k and t must be >= 1 (got k=%d t=%d)", k, t)
	}
	if err := par.CheckWorkers("pram: workers", workers); err != nil {
		return nil, Costs{}, err
	}
	res, err := spanner.GeneralCtx(context.Background(), g, k, t, spanner.Options{Seed: seed, Workers: workers})
	if err != nil {
		return nil, Costs{}, err
	}
	s := New(g.N())
	m := 2 * g.M() // both directed copies, as in the MPC layout
	for i := 0; i < res.Stats.Iterations; i++ {
		s.Hash(m)
		s.Semisort(m)
		s.FindMin(m)
		s.Merge(g.N())
	}
	for i := 0; i < res.Stats.Epochs; i++ {
		s.Semisort(m)
		s.ParallelFor(m)
	}
	// Phase 2: one final semisorted dedup.
	s.Semisort(m)
	return res, s.Costs(), nil
}

// DepthBound returns the paper's PRAM depth guarantee for General(k, t) on
// n vertices: O(iterations · log* n) with this implementation's explicit
// per-iteration constant (3 log*-primitives + 1 merge step) plus the
// per-epoch and final semisorts.
func DepthBound(n, k, t int) int64 {
	ls := int64(LogStar(float64(n)))
	specs := spanner.Schedule(k, t)
	epochs := int64(0)
	if len(specs) > 0 {
		epochs = int64(specs[len(specs)-1].Epoch)
	}
	return int64(len(specs))*(3*ls+1) + epochs*(ls+1) + ls
}
