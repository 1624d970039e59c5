// Package oracle is the serving layer for the paper's §7 / Corollary 1.4
// payoff: once a near-linear spanner is built and collected onto one machine,
// every distance query is answered locally on it. This package wraps any
// frozen graph.Graph (typically a spanner) in a concurrency-safe oracle that
// memoizes per-source distance rows, so repeated and skewed query workloads —
// the regime an APSP oracle exists to serve — cost one shortest-path
// computation per distinct source instead of one per query. The facade's
// Session is its one public front.
//
// Topology: the cache is split into 16 shards (fewer when MaxRows or the
// vertex count is smaller) keyed by source % shards, each with its own
// mutex, so concurrent queries on distinct sources do not contend. The
// Options.MaxRows budget (one row = n float64s) is partitioned round-robin
// across the shards, and each shard evicts its own least recently used row
// when a newly computed one would exceed its share — so a workload whose hot
// sources all collide in one shard can use only that shard's fraction of the
// budget. A singleflight-style in-flight table per shard deduplicates
// concurrent misses on the same source: one goroutine computes the row, the
// rest wait for it, and the computation is charged exactly once.
//
// Batch queries go through QueryMany, which groups pairs by source, answers
// sources already resident immediately, and fans the remaining distinct
// sources out over par.ForCoarseCtx. Results are written into
// position-addressed slots, so the output is a pure function of the input
// pairs regardless of scheduling — design rule 1 of DESIGN.md §3, inherited
// here as the determinism rule for batch fan-out (DESIGN.md §5).
//
// Admission: a full shard does not give a row to every one-time source. A
// batch source whose pairs all name one target, missing from a full shard
// and not already being filled, is answered by a point fill
// (dist.Solver.DistTo, two searches from the source and the target that
// meet in the middle) and installs nothing — unless it is among the last cap sources the shard answered that
// way, so a source that misses twice inside that window earns a row (the
// doorkeeper of TinyLFU). Query and Row always fill and install.
package oracle

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"mpcspanner/internal/core"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/par"
	"mpcspanner/internal/xrand"
)

// Pair is one (source, target) distance query.
type Pair struct {
	U, V int
}

// Options configures New. The zero value selects the defaults.
type Options struct {
	// shards is the number of independently locked cache shards. Zero
	// selects 16. The effective count never exceeds MaxRows (every shard
	// must be able to hold at least one row) or the vertex count. Only the
	// package's LRU tests set it, to force sources into one shard.
	shards int

	// MaxRows is the cache budget in resident rows across all shards; each
	// row holds n float64s, so the memory ceiling is MaxRows·n·8 bytes.
	// Zero selects min(1024, max(1, 64 MiB / (8·n))) rows: 1024 up to
	// n = 8 192, a 64 MiB ceiling above. Negative values are clamped to 1.
	MaxRows int

	// Workers bounds QueryMany's fan-out over distinct cold sources. Zero
	// selects GOMAXPROCS. Each cold row fill is serial, so filling distinct
	// sources at once is all the parallelism a batch gets.
	Workers int

	// Frozen, when non-nil, serves precomputed rows ahead of the cache:
	// a source the RowSource knows is answered from it directly — no lock,
	// no LRU traffic, no row fill — and counts as a hit in Stats. Sources
	// it does not know fall through to the normal cache-then-fill path.
	// Typically the row section of a loaded artifact.
	Frozen RowSource

	// Metrics, when non-nil, exposes the cache counters
	// (oracle_row_{hits,misses,evictions}_total, oracle_point_fills_total,
	// oracle_rows_resident) and enables the latency histograms
	// (oracle_row_seconds, oracle_row_fill_seconds, oracle_batch_seconds) on
	// the registry. When nil the counters live in a private registry —
	// Stats() always reads coherent obs counters — and no latency timing
	// runs, so the uninstrumented query path reads no clocks.
	Metrics *obs.Registry
}

// Stats is a point-in-time snapshot of the cache counters. Hits and Misses
// count row acquisitions (one per distinct source of a batch, not one per
// pair): an acquisition is a hit when the row was already resident or being
// computed by another goroutine, and a miss when it triggered a
// shortest-path computation — a row fill or a point fill — so Misses equals
// the number of shortest-path computations performed. A point fill installs
// nothing, so at quiescence Resident = Misses − PointFills − Evictions.
type Stats struct {
	Hits       int64 // row acquisitions served without a new computation
	Misses     int64 // row acquisitions that ran a fresh computation
	PointFills int64 // misses answered by a point fill, installing no row
	Evictions  int64 // rows dropped by the LRU policy
	Resident   int64 // rows currently cached
}

// Oracle serves approximate (or exact, if g is the original graph) distance
// queries over a frozen graph with a sharded per-source row cache. It is
// safe for concurrent use.
type Oracle struct {
	g       *graph.Graph
	shards  []shard
	workers int
	solver  *dist.Solver // fills cold rows; Δ auto-tuned at New
	frozen  RowSource    // nil unless Options.Frozen was set

	// Cache counters are obs counters (atomic, lock-free) so Stats() and an
	// attached /metrics endpoint read the same coherent series. resident
	// tracks insertions minus evictions.
	hits, misses, pointFills, evictions *obs.Counter
	resident                            *obs.Gauge

	// Latency histograms are nil unless Options.Metrics was set: the
	// uninstrumented path performs no clock reads.
	rowSeconds       *obs.Histogram // per acquisition through acquire(), point fills included
	rowFillSeconds   *obs.Histogram // per cold row fill
	batchSeconds     *obs.Histogram // per QueryMany batch
	queueWaitSeconds *obs.Histogram // per wait on another goroutine's in-flight fill
}

// entry is one cached row plus its place in the shard's LRU list.
type entry struct {
	src        int
	row        []float64
	prev, next *entry // intrusive LRU list; head = most recent
}

// call is an in-flight row computation other goroutines can wait on.
type call struct {
	done chan struct{}
	row  []float64
}

// shard is one lock domain of the cache: the sources s with
// s % len(shards) == shardIndex.
type shard struct {
	mu       sync.Mutex
	cap      int // max resident rows in this shard, ≥ 1
	rows     map[int]*entry
	inflight map[int]*call
	head     *entry // most recently used
	tail     *entry // least recently used, next eviction victim

	// window is the admission ring: the last cap sources this shard
	// answered by a point fill, overwritten at next once it holds cap.
	window []int
	next   int
}

// defaultBudgetBytes is the row memory a default-sized cache may hold.
const defaultBudgetBytes = 64 << 20

// defaultMaxRows is the row budget MaxRows = 0 selects on an n-vertex graph:
// 1024 rows, or as many as fit in defaultBudgetBytes once 1024 rows of n
// float64s would not, and never fewer than one.
func defaultMaxRows(n int) int {
	return min(1024, max(1, defaultBudgetBytes/(8*max(n, 1))))
}

// New returns an oracle over g. The graph must be frozen (it is read, never
// written); the oracle holds a reference, not a copy.
func New(g *graph.Graph, opt Options) *Oracle {
	maxRows := opt.MaxRows
	if maxRows == 0 {
		maxRows = defaultMaxRows(g.N())
	}
	if maxRows < 1 {
		maxRows = 1
	}
	nshards := opt.shards
	if nshards <= 0 {
		nshards = 16
	}
	if nshards > maxRows {
		nshards = maxRows // every shard must hold ≥ 1 row
	}
	if n := g.N(); nshards > n && n > 0 {
		nshards = n
	}
	o := &Oracle{g: g, shards: make([]shard, nshards), workers: par.Workers(opt.Workers), frozen: opt.Frozen}
	o.solver = dist.NewSolver(g, dist.SolverOptions{Metrics: opt.Metrics})
	reg := opt.Metrics
	if reg == nil {
		// Private registry: Stats() always reads obs counters, instrumented
		// or not; only the exposition surface and the latency timing differ.
		reg = obs.NewRegistry()
	}
	o.hits = reg.Counter("oracle_row_hits_total")
	o.misses = reg.Counter("oracle_row_misses_total")
	o.pointFills = reg.Counter("oracle_point_fills_total")
	o.evictions = reg.Counter("oracle_row_evictions_total")
	o.resident = reg.Gauge("oracle_rows_resident")
	if opt.Metrics != nil {
		o.rowSeconds = reg.Histogram("oracle_row_seconds", obs.LatencyBuckets)
		o.rowFillSeconds = reg.Histogram("oracle_row_fill_seconds", obs.LatencyBuckets)
		o.batchSeconds = reg.Histogram("oracle_batch_seconds", obs.LatencyBuckets)
		o.queueWaitSeconds = reg.Histogram("oracle_queue_wait_seconds", obs.LatencyBuckets)
	}
	// Distribute the row budget round-robin so the shard capacities sum to
	// exactly maxRows.
	for i := range o.shards {
		c := maxRows / nshards
		if i < maxRows%nshards {
			c++
		}
		o.shards[i] = shard{cap: c, rows: make(map[int]*entry), inflight: make(map[int]*call)}
	}
	return o
}

// SSSP reports the row-fill engine ("delta-stepping") and its auto-tuned
// bucket width — what /v1/info advertises so fleet operators can confirm
// replicas agree.
func (o *Oracle) SSSP() (engine string, delta float64) {
	return o.solver.Engine().String(), o.solver.Delta()
}

// MaxRows returns the effective cache budget in resident rows — the
// Options.MaxRows value after defaulting and clamping, summed across the
// shards. Serving daemons derive their admission-control in-flight ceiling
// from it, so overload degrades before the LRU starts thrashing.
func (o *Oracle) MaxRows() int {
	total := 0
	for i := range o.shards {
		total += o.shards[i].cap
	}
	return total
}

// vertexErr returns a typed *core.OptionError when v is not a vertex of the
// served graph. The entry points validate before touching any cache state,
// so a bad query can never strand a singleflight entry or fail a worker.
func (o *Oracle) vertexErr(field string, v int) error {
	if v < 0 || v >= o.g.N() {
		return &core.OptionError{Field: field, Value: v,
			Reason: fmt.Sprintf("vertex out of range [0,%d)", o.g.N())}
	}
	return nil
}

// Query returns the distance from u to v (dist.Inf when unreachable),
// caching the row under source u. A bad vertex or a done context returns a
// typed error (*core.OptionError / core.Canceled). Cancellation is
// checkpointed at entry (so a done context fails regardless of cache
// residency), before a fresh computation starts, and while waiting on
// another goroutine's in-flight computation; a fill already running
// completes (and is cached) regardless.
func (o *Oracle) Query(ctx context.Context, u, v int) (float64, error) {
	if err := o.vertexErr("oracle: Query.U", u); err != nil {
		return 0, err
	}
	if err := o.vertexErr("oracle: Query.V", v); err != nil {
		return 0, err
	}
	if err := core.Check(ctx); err != nil {
		return 0, err
	}
	row, _, err := o.acquire(ctx, u, -1)
	if err != nil {
		return 0, err
	}
	return row[v], nil
}

// Row returns the full distance row from src, computing and caching it on a
// miss (see Query for the errors and checkpoints). The returned slice is
// shared with the cache: callers must not mutate it. It stays valid after
// eviction (eviction drops the cache's reference, not the slice).
func (o *Oracle) Row(ctx context.Context, src int) ([]float64, error) {
	if err := o.vertexErr("oracle: Row.Src", src); err != nil {
		return nil, err
	}
	// Entry checkpoint: a done context is reported uniformly, whether or not
	// the row happens to be resident.
	if err := core.Check(ctx); err != nil {
		return nil, err
	}
	row, _, err := o.acquire(ctx, src, -1)
	return row, err
}

// acquire answers a validated source, timing the acquisition when the
// oracle is instrumented. The split keeps the uninstrumented path clock-free
// and the instrumented one allocation-free (no deferred closure).
func (o *Oracle) acquire(ctx context.Context, src, point int) ([]float64, float64, error) {
	if o.rowSeconds == nil {
		return o.acquireRow(ctx, src, point)
	}
	start := time.Now()
	row, d, err := o.acquireRow(ctx, src, point)
	o.rowSeconds.Observe(time.Since(start).Seconds())
	return row, d, err
}

// acquireRow is the acquisition path behind acquire. It returns src's row,
// except when point ≥ 0 — the one target of a batch source — and the
// admission rule turns the miss away: then it returns a nil row and the
// distance from src to point. It checkpoints ctx before starting a fresh
// computation and while waiting on an in-flight one. Once this goroutine has
// registered itself as the computing goroutine it always finishes and
// publishes the row — waiters can never be stranded by a canceled computer.
func (o *Oracle) acquireRow(ctx context.Context, src, point int) ([]float64, float64, error) {
	// Frozen rows sit in front of the cache: no lock, no LRU traffic, and
	// no residency accounting (they are not evictable cache state), so the
	// books of Stats are untouched.
	if o.frozen != nil {
		if row, ok := o.frozen.FrozenRow(src); ok {
			o.hits.Add(1)
			return row, 0, nil
		}
	}
	sh := &o.shards[src%len(o.shards)]
	sh.mu.Lock()
	if e, ok := sh.rows[src]; ok {
		sh.moveToFront(e)
		sh.mu.Unlock()
		o.hits.Add(1)
		return e.row, 0, nil
	}
	if c, ok := sh.inflight[src]; ok {
		sh.mu.Unlock()
		// Queue-wait accounting: the time this goroutine blocks on another
		// goroutine's fill is the oracle's internal queue delay — the series a
		// serving daemon watches to size its admission ceiling. Timed only
		// when instrumented, and charged whether the wait completes or is
		// canceled (a canceled waiter queued all the same).
		var waitStart time.Time
		if o.queueWaitSeconds != nil {
			waitStart = time.Now()
		}
		select {
		case <-c.done: // another goroutine computed this row; share it
		case <-ctx.Done():
			if o.queueWaitSeconds != nil {
				o.queueWaitSeconds.Observe(time.Since(waitStart).Seconds())
			}
			return nil, 0, core.Canceled(ctx.Err())
		}
		if o.queueWaitSeconds != nil {
			o.queueWaitSeconds.Observe(time.Since(waitStart).Seconds())
		}
		o.hits.Add(1)
		return c.row, 0, nil
	}
	if err := core.Check(ctx); err != nil {
		sh.mu.Unlock()
		return nil, 0, err
	}
	// Admission: a one-target miss on a full shard is answered by a point
	// fill and installs nothing, unless it is a repeat inside the window.
	if point >= 0 && len(sh.rows) >= sh.cap && !sh.admit(src) {
		sh.mu.Unlock()
		o.misses.Add(1)
		o.pointFills.Add(1)
		return nil, o.solver.DistTo(src, point), nil
	}
	c := &call{done: make(chan struct{})}
	sh.inflight[src] = c
	sh.mu.Unlock()

	// Cold fill: the row itself must be freshly allocated (it outlives this
	// call in the cache and in callers' hands), but the run's state — the
	// delta-stepping buckets and marks — comes from the solver's scratch
	// pool, so a fill costs one row allocation.
	o.misses.Add(1)
	if o.rowFillSeconds != nil {
		fillStart := time.Now()
		c.row = o.solver.Row(src)
		o.rowFillSeconds.Observe(time.Since(fillStart).Seconds())
	} else {
		c.row = o.solver.Row(src)
	}

	sh.mu.Lock()
	delete(sh.inflight, src)
	sh.insert(&entry{src: src, row: c.row})
	o.resident.Add(1)
	for len(sh.rows) > sh.cap {
		sh.evictOldest()
		o.evictions.Add(1)
		o.resident.Add(-1)
	}
	sh.mu.Unlock()
	close(c.done)
	return c.row, 0, nil
}

// peek returns the row for src iff it is already resident, counting a hit
// and refreshing its LRU position. It never waits and never computes.
func (o *Oracle) peek(src int) ([]float64, bool) {
	if o.frozen != nil {
		if row, ok := o.frozen.FrozenRow(src); ok {
			o.hits.Add(1)
			return row, true
		}
	}
	sh := &o.shards[src%len(o.shards)]
	sh.mu.Lock()
	e, ok := sh.rows[src]
	if ok {
		sh.moveToFront(e)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	o.hits.Add(1)
	return e.row, true
}

// QueryMany answers a batch of pairs: out[i] is the distance for pairs[i].
// Pairs are grouped by source; sources already resident are answered
// immediately, and the remaining distinct sources fan out over Workers
// goroutines, each writing only the slots of its own source. A missing
// source whose pairs all name one target may be answered by a point fill
// instead of a row (see the package doc's admission rule). The result is
// therefore deterministic — a pure function of (graph, pairs) — regardless
// of scheduling, cache state, or concurrent callers. Bad pairs return a
// typed *core.OptionError before any work is fanned out. Cancellation is
// checkpointed before each uncached source, so a canceled batch returns
// core.Canceled(ctx.Err()) within one row computation, with every worker
// joined and no goroutine leaked.
func (o *Oracle) QueryMany(ctx context.Context, pairs []Pair) ([]float64, error) {
	for _, p := range pairs {
		if err := o.vertexErr("oracle: Pair.U", p.U); err != nil {
			return nil, err
		}
		if err := o.vertexErr("oracle: Pair.V", p.V); err != nil {
			return nil, err
		}
	}
	// Entry checkpoint: a canceled batch fails uniformly, even when every
	// source is already resident.
	if err := core.Check(ctx); err != nil {
		return nil, err
	}
	return o.queryMany(ctx, pairs)
}

// queryMany answers a validated batch, timing it when instrumented. The
// timing split mirrors row: no clock reads uninstrumented, no deferred
// closure instrumented.
func (o *Oracle) queryMany(ctx context.Context, pairs []Pair) ([]float64, error) {
	if o.batchSeconds == nil {
		return o.runBatch(ctx, pairs)
	}
	start := time.Now()
	out, err := o.runBatch(ctx, pairs)
	o.batchSeconds.Observe(time.Since(start).Seconds())
	return out, err
}

// runBatch is the batch path behind queryMany.
func (o *Oracle) runBatch(ctx context.Context, pairs []Pair) ([]float64, error) {
	out := make([]float64, len(pairs))
	// Group pairs by source without a map: sorting the keys U<<32 | i puts
	// each source's pairs in one run, in position order.
	keys := make([]uint64, len(pairs))
	for i, p := range pairs {
		keys[i] = uint64(p.U)<<32 | uint64(i)
	}
	slices.Sort(keys)
	// Fast pass: sources already resident are answered without any fan-out.
	// The runs of missing sources are compacted to the front of keys, and
	// starts[j] is where the j-th begins.
	var starts []int
	w := 0
	for lo := 0; lo < len(keys); {
		src := int(keys[lo] >> 32)
		hi := lo + 1
		for hi < len(keys) && int(keys[hi]>>32) == src {
			hi++
		}
		if row, ok := o.peek(src); ok {
			for _, k := range keys[lo:hi] {
				i := uint32(k)
				out[i] = row[pairs[i].V]
			}
		} else {
			starts = append(starts, w)
			w += copy(keys[w:], keys[lo:hi])
		}
		lo = hi
	}
	if len(starts) == 0 {
		return out, nil
	}
	starts = append(starts, w)
	// Fan the uncached sources out. Each worker holds the row it acquired
	// while filling its slots, so a concurrent eviction cannot invalidate the
	// batch; ForCoarseCtx checkpoints ctx before each source and joins every
	// worker, so cancellation leaks nothing.
	err := par.ForCoarseCtx(ctx, o.workers, len(starts)-1, func(j int) error {
		run := keys[starts[j]:starts[j+1]]
		src := int(run[0] >> 32)
		point := pairs[uint32(run[0])].V
		for _, k := range run[1:] {
			if pairs[uint32(k)].V != point {
				point = -1 // more than one target: only a row serves
				break
			}
		}
		row, d, err := o.acquire(ctx, src, point)
		if err != nil {
			return err
		}
		for _, k := range run {
			i := uint32(k)
			if row != nil {
				d = row[pairs[i].V]
			}
			out[i] = d
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// zipfShards is the fixed shard count of ZipfWorkload generation. Fixed —
// not GOMAXPROCS — so the generated workload is a pure function of the
// arguments on every machine; only the generation wall-clock varies.
const zipfShards = 8

// ZipfWorkload draws q (source, target) pairs with Zipf(exponent)
// distributed sources over [0, n) and uniform targets — the skewed
// hot-source access pattern a serving-layer cache exists for. The
// benchmarks and cmd/oracle's -synth mode share it, so the CLI serves
// exactly the workload the README numbers describe. Deterministic in seed:
// generation fans out over a fixed number of shards, each drawing from its
// own par.Streams stream (one Zipf source stream and one target stream per
// shard) into its own index range, so the pairs are identical however many
// cores run the shards.
func ZipfWorkload(n, q int, exponent float64, seed uint64) []Pair {
	streams := par.Streams(seed, 2*zipfShards)
	pairs := make([]Pair, q)
	par.ForCoarse(par.Workers(0), zipfShards, func(s int) {
		src := xrand.NewZipf(streams[2*s], n, exponent)
		tgt := streams[2*s+1]
		for i := s * q / zipfShards; i < (s+1)*q/zipfShards; i++ {
			pairs[i] = Pair{U: src.Next(), V: tgt.Intn(n)}
		}
	})
	return pairs
}

// Stats returns a snapshot of the cache counters — the same obs counters an
// attached Options.Metrics registry exposes, so Stats() and /metrics never
// disagree. Resident is additionally cross-checked against the shard maps:
// it is summed under the shard locks, and at quiescence equals
// Misses − PointFills − Evictions (every miss but a point fill inserts
// exactly one row).
func (o *Oracle) Stats() Stats {
	s := Stats{
		Hits:       o.hits.Value(),
		Misses:     o.misses.Value(),
		PointFills: o.pointFills.Value(),
		Evictions:  o.evictions.Value(),
	}
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.Lock()
		s.Resident += int64(len(sh.rows))
		sh.mu.Unlock()
	}
	return s
}

// admit reports whether a one-target miss on src earns a row: whether src
// is among the last cap sources this shard answered by a point fill. If it
// is not, src enters the window as the newest of them. Caller holds the
// shard lock.
func (sh *shard) admit(src int) bool {
	if slices.Contains(sh.window, src) {
		return true
	}
	if len(sh.window) < sh.cap {
		sh.window = append(sh.window, src)
	} else {
		sh.window[sh.next] = src
		sh.next = (sh.next + 1) % sh.cap
	}
	return false
}

// insert links e at the front of the LRU list and indexes it. Caller holds
// the shard lock.
func (sh *shard) insert(e *entry) {
	sh.rows[e.src] = e
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveToFront refreshes e's recency. Caller holds the shard lock.
func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	// Unlink.
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	// Relink at head.
	e.prev = nil
	e.next = sh.head
	sh.head.prev = e
	sh.head = e
}

// evictOldest drops the least recently used row. Caller holds the shard lock
// and guarantees the shard is non-empty.
func (sh *shard) evictOldest() {
	victim := sh.tail
	delete(sh.rows, victim.src)
	sh.tail = victim.prev
	if sh.tail != nil {
		sh.tail.next = nil
	} else {
		sh.head = nil
	}
	victim.prev, victim.next = nil, nil
}
