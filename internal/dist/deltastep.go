package dist

// This file is the delta-stepping SSSP engine (Meyer & Sanders 2003): the
// bucketed replacement for the binary-heap Dijkstra on every path that needs
// shortest-path distances from one source — oracle row fills, APSP
// materialization, the pair-stretch estimators — and, through DistTo, on
// every path that needs one distance: the oracle's point fills and the
// edge-stretch probes. DistTo runs two searches, from the source and from the
// target, that meet in the middle (bidirectional search, Pohl 1971), then
// finishes the forward one through the corridor of near-shortest paths the
// two leave (distTo); it stops at the bucket boundary where the target's
// label is final. A side's row is never cleared: it holds a label only where
// its run's queue stamp says the run wrote one, so a side pays only for the
// vertices it reaches. A run is one serial kernel; every bucket of every run,
// full row or side, settles through one step. Parallelism comes only from
// running many sources at once (the oracle's QueryMany pool, concurrent
// requests, forWorkers), which keeps every core busy without the atomics a
// shared row would need. The heap engine stays as the reference every
// exactness test compares against.
//
// Exactness: with strictly positive weights every label-correcting schedule
// — heap order, bucket order, any order that keeps relaxing until no edge
// improves — converges to the same fixpoint: d[v] = min over all src→v paths
// of the left-to-right float64 sum of the path's weights. Float addition of
// non-negative values is monotone, so relaxation order changes which
// intermediate labels a vertex holds but never the final minimum. The final
// row is therefore bit-identical to heap Dijkstra's — the equality the
// deltastep tests pin.
//
// Bucket structure: tentative distances are binned into buckets of width Δ,
// kept in a cyclic array of B = ⌊maxW/Δ⌋+3 slots. The window bound: every
// insertion while bucket `cur` is active carries a distance in
// [cur·Δ, cur·Δ + maxW + Δ), so live entries span at most ⌊maxW/Δ⌋+2
// consecutive buckets and the cyclic array never aliases two live bins (the
// +3 includes one slot of slack for float rounding at bucket edges). Emptied
// bucket slices are recycled through a free list — lazy bucket recycling —
// so steady-state bucket traffic allocates nothing.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
)

// Engine selects the single-source shortest-path algorithm behind full-row
// fills. All engines produce bit-identical rows; they differ only in speed.
type Engine uint8

const (
	// EngineAuto resolves to delta-stepping on every graph.
	EngineAuto Engine = iota
	// EngineHeap forces the pooled 4-ary-heap Dijkstra, the reference every
	// exactness test compares against.
	EngineHeap
	// EngineDelta forces bucketed delta-stepping.
	EngineDelta
)

// String returns the wire/CLI name of the engine.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineHeap:
		return "heap"
	case EngineDelta:
		return "delta-stepping"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine maps a CLI/wire name back to an Engine. "delta" is accepted as
// shorthand for "delta-stepping".
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto":
		return EngineAuto, nil
	case "heap":
		return EngineHeap, nil
	case "delta", "delta-stepping":
		return EngineDelta, nil
	}
	return EngineAuto, fmt.Errorf("dist: unknown SSSP engine %q (want auto, heap, or delta-stepping)", s)
}

// maxDeltaBuckets caps the cyclic bucket array. A Δ so small that ⌊maxW/Δ⌋+3
// exceeds the cap is raised to the smallest Δ that fits — protecting against
// pathological widths without unbounded memory.
const maxDeltaBuckets = 1 << 20

// SolverOptions configures NewSolver. The zero value selects delta-stepping
// with the auto-tuned Δ and no instrumentation.
type SolverOptions struct {
	// Engine selects the algorithm; EngineAuto resolves to EngineDelta.
	Engine Engine

	// Delta is the bucket width for delta-stepping. Values ≤ 0 (and NaN/Inf)
	// select the auto heuristic Δ = (average edge weight) / (average degree):
	// wider buckets on heavy edges amortize phase overhead, narrower buckets
	// on dense graphs bound re-relaxation within a bucket. The width is
	// clamped up if the implied bucket array would exceed maxDeltaBuckets,
	// and to at least 2⁻¹⁰²², so that 1/Δ is finite.
	Delta float64

	// Metrics, when non-nil, exposes the dist_* series: row counts and
	// latencies (dist_sssp_rows_total, dist_sssp_row_seconds) plus the
	// delta-stepping internals (dist_delta_relaxations_total,
	// dist_delta_buckets_total, dist_delta_light_phases_total and the
	// per-phase dist_delta_{light,heavy}_seconds histograms); DistTo runs
	// count in the delta-stepping internals only. When nil the fill path
	// reads no clocks, mirroring the oracle's discipline.
	Metrics *obs.Registry
}

// Solver answers full single-source distance rows (RowInto) and one-pair
// queries (DistTo) over one frozen graph, with the engine and Δ resolved
// once at construction. The light/heavy edge split is precomputed per CSR
// adjacency at construction; per-run state (buckets, marks, a side's row)
// is drawn from a per-Solver sync.Pool, so steady-state rows allocate
// nothing beyond the row itself. A Solver is safe for concurrent use: each
// run is serial on its caller's goroutine.
type Solver struct {
	g       *graph.Graph
	engine  Engine  // resolved: EngineHeap or EngineDelta, never EngineAuto
	delta   float64 // effective bucket width; 0 when the engine is the heap
	invDel  float64 // 1/delta, so bucketOf multiplies instead of divides
	buckets int     // cyclic bucket array length B
	slack   float64 // 1 + δ, distTo's corridor margin: 1 + 4·(n + m)·2⁻⁵³

	// Light/heavy CSR split: arc i of vertex v lives at lightOff[v] ≤ i <
	// lightOff[v+1] (weight ≤ Δ) or the heavy mirror (> Δ). Targets and
	// weights are split into parallel arrays — 12 bytes per arc, scanned
	// linearly — instead of re-deriving weights through g.Edge on every
	// relaxation.
	lightOff, heavyOff []int32
	lightTo, heavyTo   []int32
	lightW, heavyW     []float64

	pool sync.Pool // *deltaScratch

	// Metric handles; nil (and never touched) without SolverOptions.Metrics.
	rows, relaxations, bucketsDone, lightPhases *obs.Counter
	rowSeconds, lightSeconds, heavySeconds      *obs.Histogram
}

// NewSolver resolves the options against g and precomputes the edge split.
// The graph must be frozen; the solver holds a reference, not a copy.
func NewSolver(g *graph.Graph, opt SolverOptions) *Solver {
	s := &Solver{g: g, engine: opt.Engine}
	if s.engine == EngineAuto {
		s.engine = EngineDelta
	}
	if opt.Metrics != nil {
		s.rows = opt.Metrics.Counter("dist_sssp_rows_total")
		s.rowSeconds = opt.Metrics.Histogram("dist_sssp_row_seconds", obs.LatencyBuckets)
	}
	if s.engine != EngineDelta {
		return s
	}

	// Edge statistics for the auto heuristic and the bucket window bound.
	m := g.M()
	maxW, sumW := 0.0, 0.0
	for i := 0; i < m; i++ {
		w := g.Edge(i).W
		sumW += w
		if w > maxW {
			maxW = w
		}
	}
	delta := opt.Delta
	if !(delta > 0) || math.IsInf(delta, 1) { // ≤0, NaN, +Inf: auto-tune
		if m > 0 && g.N() > 0 {
			avgW := sumW / float64(m)
			avgDeg := 2 * float64(m) / float64(g.N())
			delta = avgW / avgDeg
		}
		if !(delta > 0) || math.IsInf(delta, 1) {
			delta = 1 // edgeless or degenerate graph: any width works
		}
	}
	// Compare in float64: maxW/Δ can pass 2⁶³, or overflow to +Inf, when
	// the weights span a wide range and Δ is set small, where an integer
	// conversion would wrap. graph.New keeps maxW and the weight sum finite.
	if maxW/delta+3 > maxDeltaBuckets {
		delta = maxW / float64(maxDeltaBuckets-3)
	}
	// A subnormal Δ, possible only when every weight is below about 2⁻¹⁰⁰²
	// (the clamp keeps Δ ≥ maxW/2²⁰), has no finite reciprocal: bucketOf
	// would bin every label at int64(+Inf). Every width is exact, so the
	// least normal float64 stands in.
	delta = max(delta, 0x1p-1022)
	s.delta = delta
	s.invDel = 1 / delta
	s.buckets = int(maxW/delta) + 3
	s.slack = 1 + 4*float64(g.N()+m)*0x1p-53

	// Split every adjacency into light (w ≤ Δ) and heavy (w > Δ) runs:
	// counting pass builds the offsets, fill pass scatters targets and
	// weights.
	n := g.N()
	s.lightOff = make([]int32, n+1)
	s.heavyOff = make([]int32, n+1)
	for v := 0; v < n; v++ {
		var l, h int32
		for _, a := range g.Adj(v) {
			if g.Edge(a.Edge).W <= delta {
				l++
			} else {
				h++
			}
		}
		s.lightOff[v+1] = s.lightOff[v] + l
		s.heavyOff[v+1] = s.heavyOff[v] + h
	}
	s.lightTo = make([]int32, s.lightOff[n])
	s.lightW = make([]float64, s.lightOff[n])
	s.heavyTo = make([]int32, s.heavyOff[n])
	s.heavyW = make([]float64, s.heavyOff[n])
	li, hi := int32(0), int32(0)
	for v := 0; v < n; v++ {
		for _, a := range g.Adj(v) {
			w := g.Edge(a.Edge).W
			if w <= delta {
				s.lightTo[li] = int32(a.To)
				s.lightW[li] = w
				li++
			} else {
				s.heavyTo[hi] = int32(a.To)
				s.heavyW[hi] = w
				hi++
			}
		}
	}

	if opt.Metrics != nil {
		s.relaxations = opt.Metrics.Counter("dist_delta_relaxations_total")
		s.bucketsDone = opt.Metrics.Counter("dist_delta_buckets_total")
		s.lightPhases = opt.Metrics.Counter("dist_delta_light_phases_total")
		s.lightSeconds = opt.Metrics.Histogram("dist_delta_light_seconds", obs.LatencyBuckets)
		s.heavySeconds = opt.Metrics.Histogram("dist_delta_heavy_seconds", obs.LatencyBuckets)
	}
	return s
}

// Engine returns the resolved engine (never EngineAuto).
func (s *Solver) Engine() Engine { return s.engine }

// Delta returns the effective bucket width, or 0 when the engine is the heap.
func (s *Solver) Delta() float64 { return s.delta }

// Row returns the full distance row from src; unreachable vertices get Inf.
// The returned slice is freshly allocated and caller-owned.
func (s *Solver) Row(src int) []float64 { return s.RowInto(src, nil) }

// RowInto is Row writing into d, which is returned. A d of the wrong length
// (nil included) is replaced by a fresh allocation; a reused g.N()-sized
// buffer makes the steady-state call allocation-free. It panics if src is
// not a vertex, matching DijkstraInto.
func (s *Solver) RowInto(src int, d []float64) []float64 {
	if n := s.g.N(); len(d) != n {
		d = make([]float64, n)
	}
	if s.rowSeconds == nil {
		s.fill(src, d)
		return d
	}
	start := time.Now()
	s.fill(src, d)
	s.rowSeconds.Observe(time.Since(start).Seconds())
	return d
}

func (s *Solver) fill(src int, d []float64) {
	if s.engine == EngineHeap {
		DijkstraInto(s.g, src, d)
	} else {
		sc := s.getScratch()
		s.runDelta(sc, src, d)
		s.pool.Put(sc)
	}
	if s.rows != nil {
		s.rows.Add(1)
	}
}

// DistTo returns the distance from src to t, or Inf if t is unreachable;
// src and t must be vertices. It answers 0 for src == t. Otherwise the
// delta-stepping engine runs distTo's two-sided search, which settles two
// balls of about half the radius, and the heap engine fills a pooled row.
// The answer is bit-identical to RowInto's entry, and a steady-state call
// allocates nothing. DistTo is not a row fill: it counts under no
// dist_sssp_* series, and both sides of a two-sided search count in the
// delta-stepping internals.
func (s *Solver) DistTo(src, t int) float64 {
	if s.engine == EngineHeap {
		sc := acquire(s.g.N())
		d := DijkstraInto(s.g, src, sc.dist)[t]
		sc.release()
		return d
	}
	if src == t {
		return 0
	}
	return s.distTo(src, t)
}

// deltaScratch is the pooled per-run state of one delta-stepping execution.
type deltaScratch struct {
	buckets [][]int32 // cyclic bucket array, indexed cur mod B; nil = empty
	free    [][]int32 // recycled bucket backing stores
	fr      []int32   // current light frontier (stale-filtered take)
	r       []int32   // vertices settled in the active bucket (heavy phase input)

	// Queue state, epoch-stamped so rows never memset O(n) arrays: vertex v
	// has a live bucket entry iff qmark[v] == qgen and qbucket[v] ≥ 0, and
	// that entry sits at bucket qbucket[v]. Keeping at most one live entry
	// per (vertex, bucket) is what bounds duplicate processing.
	qmark   []uint32
	qbucket []int64
	qgen    uint32

	// R-membership epoch: rmark[v] == rgen ⇔ v already collected into r for
	// the active bucket, so its heavy arcs relax once per bucket.
	rmark []uint32
	rgen  uint32

	pending int64 // live bucket entries; 0 ⇔ done
	cur     int64 // lowest bucket that may hold a live entry (see step)
	arcs    int64 // arcs scanned this run: distTo advances the side with fewer

	// A side's distance row, allocated on its first use and never cleared:
	// only the entries label admits belong to the current run.
	row []float64

	// distTo's side state; nil on every other run. In phase 1, other is the
	// opposite side and mu the least meeting sum this side has seen. In
	// phase 2 the forward side skips the arcs of every vertex v with
	// d[v] + min(lb.label(v), lbMax) > limit: lb is the backward side, lbMax
	// its radius and limit mu·(1+δ).
	other, lb        *deltaScratch
	mu, lbMax, limit float64

	// Local metric accumulators, flushed once per row (Add per edge would be
	// an atomic per relaxation).
	nRelax, nBuckets, nLight int64
}

func (s *Solver) getScratch() *deltaScratch {
	if sc, ok := s.pool.Get().(*deltaScratch); ok {
		return sc
	}
	n := s.g.N()
	return &deltaScratch{
		buckets: make([][]int32, s.buckets),
		qmark:   make([]uint32, n),
		qbucket: make([]int64, n),
		rmark:   make([]uint32, n),
	}
}

// rowOf returns sc's pooled side row, allocating it on first use.
func (sc *deltaScratch) rowOf(n int) []float64 {
	if sc.row == nil {
		sc.row = make([]float64, n)
	}
	return sc.row
}

// label is v's label in a side's run: its row entry if the run wrote one,
// which enqueue's stamp qmark[v] == qgen records, and +Inf otherwise. Every
// write of a label is followed by its enqueue, and no stamp is withdrawn
// within a run, so an unstamped entry is a stale label of an earlier run.
func (sc *deltaScratch) label(v int32) float64 {
	if sc.qmark[v] == sc.qgen {
		return sc.row[v]
	}
	return Inf
}

// bucketOf bins a finite tentative distance. Multiplication by 1/Δ is
// monotone (float rounding preserves ≤), which is all the algorithm needs:
// improvements never move a vertex to a later bucket, and relaxations from
// bucket cur never land before cur.
func (s *Solver) bucketOf(x float64) int64 { return int64(x * s.invDel) }

// enqueue records v's live entry at bucket b, skipping the append when an
// entry for exactly (v, b) is already live.
func (sc *deltaScratch) enqueue(v int32, b int64, nbuckets int) {
	if sc.qmark[v] == sc.qgen && sc.qbucket[v] == b {
		return
	}
	sc.qmark[v] = sc.qgen
	sc.qbucket[v] = b
	i := int(b % int64(nbuckets))
	if sc.buckets[i] == nil {
		if k := len(sc.free); k > 0 {
			sc.buckets[i] = sc.free[k-1]
			sc.free = sc.free[:k-1]
		} else {
			sc.buckets[i] = make([]int32, 0, 64)
		}
	}
	sc.buckets[i] = append(sc.buckets[i], v)
	sc.pending++
}

// runDelta fills d with the exact distance row from src.
func (s *Solver) runDelta(sc *deltaScratch, src int, d []float64) {
	for i := range d {
		d[i] = Inf
	}
	s.start(sc, src, d)
	for sc.pending > 0 {
		s.step(sc, d, false)
	}
	s.flush(sc)
}

// distTo is DistTo for t ≠ src: two delta-stepping runs, a forward one from
// src on f and a backward one from t on b (the graph is undirected, so the
// backward run is a forward run from t), that meet in the middle. Each side
// runs on its scratch's uncleared row and reads labels through label. DESIGN
// §12 "Target-bounded runs" proves the answer bit-identical to the row's
// entry.
//
// Phase 1 advances the side that has scanned fewer arcs by one bucket at a
// time. Every relaxation that improves a label meets the other side's label
// of that vertex, and mu keeps the least such sum. The phase ends when the
// radii of the two sides sum to at least mu, or when a side runs out; then
// mu = +Inf means t is unreachable, and f never labeled it.
//
// Phase 2 runs the forward side alone, through the corridor only: it skips
// the arcs of every vertex v with d_s(v) + lb(v) > mu·(1+δ), where lb(v) is
// the backward label if the backward run settled v and the backward radius
// otherwise (the lesser of the two is that bound in both cases). It stops
// once t's label is final: finite and binned below f.cur.
func (s *Solver) distTo(src, t int) float64 {
	f, b := s.getScratch(), s.getScratch()
	df, db := f.rowOf(s.g.N()), b.rowOf(s.g.N())
	s.start(f, src, df)
	s.start(b, t, db)
	f.other, b.other = b, f
	f.mu, b.mu = Inf, Inf
	for f.pending > 0 && b.pending > 0 && s.radius(f)+s.radius(b) < min(f.mu, b.mu) {
		if f.arcs <= b.arcs {
			s.step(f, df, true)
		} else {
			s.step(b, db, true)
		}
	}
	f.other, b.other = nil, nil
	if mu := min(f.mu, b.mu); mu < Inf {
		f.lb, f.lbMax, f.limit = b, s.radius(b), mu*s.slack
		for f.pending > 0 && !s.final(f, f.label(int32(t))) {
			s.step(f, df, true)
		}
		f.lb = nil
	}
	d := f.label(int32(t))
	for _, sc := range [2]*deltaScratch{f, b} {
		sc.recycle(sc.cur, s.buckets)
		s.flush(sc)
		s.pool.Put(sc)
	}
	return d
}

// start resets sc for a run from src into d: src's label 0, queued alone in
// bucket 0. It writes no other entry of d: runDelta clears its row first,
// and a side reads only the labels its run stamped.
func (s *Solver) start(sc *deltaScratch, src int, d []float64) {
	sc.qgen++
	if sc.qgen == 0 { // epoch wrapped: invalidate stale stamps
		clear(sc.qmark)
		sc.qgen = 1
	}
	d[src] = 0
	sc.pending, sc.cur, sc.arcs = 0, 0, 0
	sc.enqueue(int32(src), 0, s.buckets)
}

// step settles bucket sc.cur, the lowest bucket with a live entry, and
// advances sc.cur to the next bucket holding an entry. Afterwards every label
// binned below sc.cur is final: bucketOf is monotone and weights are
// positive, so no later relaxation can land below sc.cur. A side of distTo
// steps with side set, so it relaxes through relaxSide alone; every other run
// relaxes through relax, whose loop carries none of relaxSide's checks.
func (s *Solver) step(sc *deltaScratch, d []float64, side bool) {
	cur := sc.cur
	// Light loop: drain bucket cur until it stays empty. Relaxing a light
	// edge can refill the active bucket (w ≤ Δ keeps nd in the same bin),
	// so re-taking until stable is what settles the bucket exactly.
	sc.rgen++
	if sc.rgen == 0 {
		clear(sc.rmark)
		sc.rgen = 1
	}
	sc.r = sc.r[:0]
	var phaseStart time.Time
	if s.lightSeconds != nil {
		phaseStart = time.Now()
	}
	for {
		i := int(cur % int64(s.buckets))
		take := sc.buckets[i]
		if len(take) == 0 {
			break
		}
		sc.buckets[i] = nil
		sc.pending -= int64(len(take))
		// Pre-filter: drop stale entries (the vertex has moved to
		// an earlier bucket and was or will be settled there), release
		// the live-entry stamp, and collect first-time vertices into R.
		fr := sc.fr[:0]
		for _, v := range take {
			if s.bucketOf(d[v]) != cur {
				continue
			}
			if sc.qmark[v] == sc.qgen && sc.qbucket[v] == cur {
				sc.qbucket[v] = -1
			}
			if sc.rmark[v] != sc.rgen {
				sc.rmark[v] = sc.rgen
				sc.r = append(sc.r, v)
			}
			fr = append(fr, v)
		}
		sc.fr = fr
		sc.free = append(sc.free, take[:0])
		s.relax(sc, d, fr, s.lightOff, s.lightTo, s.lightW, side)
		sc.nLight++
	}
	if s.lightSeconds != nil {
		s.lightSeconds.Observe(time.Since(phaseStart).Seconds())
		phaseStart = time.Now()
	}
	// Heavy phase: every vertex settled in this bucket relaxes its heavy
	// arcs once, with its final distance. Heavy targets land in later
	// buckets (w > Δ), except at most one bucket of float-rounding slack
	// — if that lands back in cur, sc.cur stays at cur and the next step
	// re-enters the light loop for it, so nothing is stranded.
	s.relax(sc, d, sc.r, s.heavyOff, s.heavyTo, s.heavyW, side)
	if s.heavySeconds != nil {
		s.heavySeconds.Observe(time.Since(phaseStart).Seconds())
	}
	sc.nBuckets++
	if len(sc.buckets[cur%int64(s.buckets)]) == 0 {
		sc.cur = cur + 1
		for sc.pending > 0 && len(sc.buckets[sc.cur%int64(s.buckets)]) == 0 {
			sc.cur++
		}
	}
}

// final reports whether label x is the fixpoint value: finite and binned
// below sc.cur (step's invariant).
func (s *Solver) final(sc *deltaScratch, x float64) bool {
	return x != Inf && s.bucketOf(x) < sc.cur
}

// radius is the lower edge of sc.cur's bucket: every label a later step of
// sc settles is at least this, up to the rounding of the product.
func (s *Solver) radius(sc *deltaScratch) float64 { return float64(sc.cur) * s.delta }

// flush adds the run's local work counts to the solver's metrics and zeroes
// them.
func (s *Solver) flush(sc *deltaScratch) {
	if s.rows != nil {
		s.relaxations.Add(sc.nRelax)
		s.bucketsDone.Add(sc.nBuckets)
		s.lightPhases.Add(sc.nLight)
	}
	sc.nRelax, sc.nBuckets, sc.nLight = 0, 0, 0
}

// recycle moves every live bucket, from bucket from onwards, to the free
// list, so a run that stopped early leaves the next run an empty array.
// Live entries span less than one cycle of the array, so the walk ends
// within nbuckets steps.
func (sc *deltaScratch) recycle(from int64, nbuckets int) {
	for b := from; sc.pending > 0; b++ {
		i := int(b % int64(nbuckets))
		if take := sc.buckets[i]; take != nil {
			sc.pending -= int64(len(take))
			sc.free = append(sc.free, take[:0])
			sc.buckets[i] = nil
		}
	}
}

// relax applies one relaxation pass of the given CSR split (light or heavy)
// over list, enqueueing every target whose distance improves. With side set
// it is relaxSide's pass instead.
func (s *Solver) relax(sc *deltaScratch, d []float64, list []int32, off, to []int32, w []float64, side bool) {
	if side {
		s.relaxSide(sc, d, list, off, to, w)
		return
	}
	for _, v := range list {
		dv := d[v]
		end := off[v+1]
		for i := off[v]; i < end; i++ {
			u := to[i]
			nd := dv + w[i]
			if nd < d[u] {
				d[u] = nd
				sc.nRelax++
				sc.enqueue(u, s.bucketOf(nd), s.buckets)
			}
		}
	}
}

// relaxSide is relax on a side of distTo, whose row d is never cleared: an
// entry without the run's stamp counts as +Inf. It counts the arcs it scans,
// meets every improved label with the other side's in phase 1, and in phase 2
// skips the arcs of every vertex outside the corridor.
func (s *Solver) relaxSide(sc *deltaScratch, d []float64, list []int32, off, to []int32, w []float64) {
	other, lb := sc.other, sc.lb
	for _, v := range list {
		dv := d[v]
		if lb != nil && dv+min(lb.label(v), sc.lbMax) > sc.limit {
			continue
		}
		start, end := off[v], off[v+1]
		sc.arcs += int64(end - start)
		for i := start; i < end; i++ {
			u := to[i]
			nd := dv + w[i]
			if sc.qmark[u] != sc.qgen || nd < d[u] {
				d[u] = nd
				sc.nRelax++
				if other != nil {
					if m := nd + other.label(u); m < sc.mu {
						sc.mu = m
					}
				}
				sc.enqueue(u, s.bucketOf(nd), s.buckets)
			}
		}
	}
}
