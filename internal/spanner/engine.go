package spanner

import (
	"context"
	"fmt"
	"math"
	"time"

	"mpcspanner/internal/cluster"
	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/par"
	"mpcspanner/internal/xrand"
)

// CheckInvariants enables expensive structural assertions inside the engine
// (the Lemma 5.6 invariant that every unprocessed edge joins two distinct
// live clusters). Tests switch it on; it panics on violation.
var CheckInvariants bool

// engine holds the mutable state of one run of any engine variant on one
// graph. All supernode-indexed slices are rebuilt at each contraction.
//
// Parallel execution: the heavy passes — coin evaluation, the per-supernode
// grow loop (Steps B2–B4), the B6 intra-cluster sweep, the contraction
// relabel/dedup, and Phase 2 — shard their index space over internal/par
// with `workers` goroutines. Every shard either writes only its own slots or
// appends to a per-shard accumulator that is concatenated in shard order
// (= index order), so a run's output is bit-identical at every worker count;
// the pinning tests in parallel_test.go enforce that.
type engine struct {
	g    *graph.Graph
	k, t int
	cfg  engineConfig

	workers int // resolved parallel worker count (>= 1)

	// Quotient graph of the current epoch.
	nSuper int
	edges  []cluster.QEdge // edge set E of the current epoch
	alive  []bool          // alive[i] <=> edges[i] still unprocessed
	nAlive int
	inc    [][]int32 // supernode -> indexes into edges (slices of one CSR arena)

	part         *cluster.Partition
	centerVertex []int32 // supernode -> original center vertex
	clusterOf    []int32 // supernode -> center supernode of its cluster (cluster.None = finished)
	active       []int32 // centers of the live clusters of D_{j-1}

	// Output: inSpanner marks the chosen input edges (its ascending scan is
	// the sorted EdgeIDs) and spanCount counts them.
	inSpanner []bool
	spanCount int

	// fresh is freshEdges' mark scratch over input edge ids, all false
	// between calls (allocated by the first Theorem 8.1 plan).
	fresh []bool

	// Cluster-tree bookkeeping over original vertices, for radius stats:
	// every merge edge is recorded, and a union-find tracks which original
	// center is the root of each tree component.
	treeEdges  []int
	treeUF     *graph.UnionFind
	compCenter []int32

	// Scratch, sized nSuper per epoch. sampledFlag is shared (written before
	// the parallel passes, read-only inside them); the per-cluster minima
	// buffers are per worker so the sharded grow loop never contends.
	sampledFlag []bool
	scratch     []growScratch

	// dedupSorter is the radix scratch the Step C and Phase 2 dedups
	// (cluster.MinDedup) reuse across epochs.
	dedupSorter par.RadixSorter

	// met/tracer carry the run's exposition handles. The zero met struct
	// holds nil handles whose mutations are no-ops, and a nil tracer's
	// StartSpan returns an inert nil span, so an uninstrumented run reads no
	// clocks and allocates nothing extra.
	met    engMetrics
	tracer *obs.Tracer

	stats Stats
}

// engMetrics are the engine's exposition handles: structural levels the
// paper's lemmas argue about (supernode and alive-edge counts per epoch) and
// the engine's own activity counters.
type engMetrics struct {
	growIters     *obs.Counter   // spanner_grow_iterations_total
	contractions  *obs.Counter   // spanner_contractions_total
	supernodes    *obs.Gauge     // spanner_supernodes (level after last contraction)
	aliveEdges    *obs.Gauge     // spanner_alive_edges (level after last iteration)
	edgesSelected *obs.Gauge     // spanner_edges_selected (spanner size so far)
	iterSeconds   *obs.Histogram // spanner_iteration_seconds
}

// initObs binds the engine's metric handles to cfg.Metrics (no-ops when nil)
// and installs the tracer.
func (e *engine) initObs() {
	r := e.cfg.Metrics
	e.tracer = e.cfg.Tracer
	if r == nil {
		return
	}
	e.met = engMetrics{
		growIters:     r.Counter("spanner_grow_iterations_total"),
		contractions:  r.Counter("spanner_contractions_total"),
		supernodes:    r.Gauge("spanner_supernodes"),
		aliveEdges:    r.Gauge("spanner_alive_edges"),
		edgesSelected: r.Gauge("spanner_edges_selected"),
		iterSeconds:   r.Histogram("spanner_iteration_seconds", obs.LatencyBuckets),
	}
	e.met.supernodes.Set(int64(e.nSuper))
	e.met.aliveEdges.Set(int64(e.nAlive))
}

// growScratch is one worker's per-cluster minima buffer (Definition 4.1's
// E(v, c) gathering). stamp-marking avoids clearing between supernodes.
type growScratch struct {
	mark    []int32
	bestW   []float64
	bestIdx []int32
	stamp   int32
	nbr     []int32
}

// runEngine executes one full run and returns the spanner. ctx is
// checkpointed cooperatively between iteration-sized chunks (each grow
// iteration, each contraction, and before phase 2); on cancellation the
// engine returns core.Canceled(ctx.Err()) with every pool goroutine joined —
// in-flight sharded passes always complete their chunk first, so no state is
// left torn and nothing leaks. When ctx is never canceled the run is
// bit-identical to a context-free run at every worker count.
func runEngine(ctx context.Context, g *graph.Graph, k, t int, cfg engineConfig) (*Result, error) {
	e := newEngine(g, k, t, cfg)
	switch {
	case cfg.whp != nil:
		e.stats.Algorithm = "general-whp"
	case cfg.classicBS:
		e.stats.Algorithm = "baswana-sen"
	default:
		e.stats.Algorithm = "general"
	}

	if err := e.phase1(ctx); err != nil {
		return nil, err
	}
	if err := core.Check(ctx); err != nil {
		return nil, err
	}
	sp := e.tracer.StartSpan("spanner.phase2").SetInt("alive_edges", int64(e.nAlive))
	e.phase2()
	sp.SetInt("spanner_edges", int64(e.spanCount)).End()
	e.met.edgesSelected.Set(int64(e.spanCount))
	e.emit("phase2", 0, 0)

	e.stats.Phase2Edges = e.spanCount - e.stats.Phase1Edges
	if cfg.MeasureRadius {
		e.stats.Radius = e.measureRadius()
	}
	return &Result{EdgeIDs: markedIDs(e.inSpanner, e.spanCount), Stats: e.stats}, nil
}

// markedIDs lists the set indexes of a membership bitmap holding count
// marks, ascending: the sorted, unique EdgeIDs of a spanner.
func markedIDs(in []bool, count int) []int {
	ids := make([]int, 0, count)
	for id, ok := range in {
		if ok {
			ids = append(ids, id)
		}
	}
	return ids
}

// newEngine constructs the initial state of one run: every vertex a
// supernode and a live singleton cluster, every edge alive.
func newEngine(g *graph.Graph, k, t int, cfg engineConfig) *engine {
	n := g.N()
	e := &engine{
		g: g, k: k, t: t, cfg: cfg,
		workers:      par.Workers(cfg.Workers),
		nSuper:       n,
		edges:        cluster.FromGraph(g),
		part:         cluster.NewPartition(n),
		centerVertex: make([]int32, n),
		clusterOf:    make([]int32, n),
		inSpanner:    make([]bool, g.M()),
		treeUF:       graph.NewUnionFind(n),
		compCenter:   make([]int32, n),
	}
	for v := 0; v < n; v++ {
		e.centerVertex[v] = int32(v)
		e.clusterOf[v] = int32(v)
		e.compCenter[v] = int32(v)
	}
	e.alive = make([]bool, len(e.edges))
	for i := range e.alive {
		e.alive[i] = true
	}
	e.nAlive = len(e.edges)
	e.resetEpochScratch()
	e.rebuildIncidence()
	e.resetActive()
	e.initObs()
	e.stats = Stats{K: k, T: t}
	return e
}

// emit delivers one progress event to the run's callback, if installed.
// Iteration is the engine's global grow-iteration count (not the
// within-epoch index), so event consumers see a monotone fraction of
// TotalIterations.
func (e *engine) emit(stage string, epoch, total int) {
	if e.cfg.Progress == nil {
		return
	}
	e.cfg.Progress(core.ProgressEvent{
		Stage:           stage,
		Algorithm:       e.stats.Algorithm,
		Epoch:           epoch,
		Iteration:       e.stats.Iterations,
		TotalIterations: total,
		Supernodes:      e.nSuper,
		AliveEdges:      e.nAlive,
		SpannerEdges:    e.spanCount,
	})
}

func (e *engine) resetEpochScratch() {
	e.sampledFlag = make([]bool, e.nSuper)
	// One scratch per shard that will actually run (nSuper shrinks every
	// contraction, so late epochs often collapse to one inline shard), with
	// buffer capacity reused across epochs.
	shards := par.ShardCount(e.workers, e.nSuper)
	if shards > len(e.scratch) {
		e.scratch = append(e.scratch, make([]growScratch, shards-len(e.scratch))...)
	}
	e.scratch = e.scratch[:shards]
	for w := range e.scratch {
		sc := &e.scratch[w]
		if cap(sc.mark) < e.nSuper {
			sc.mark = make([]int32, e.nSuper)
			sc.bestW = make([]float64, e.nSuper)
			sc.bestIdx = make([]int32, e.nSuper)
		} else {
			sc.mark = sc.mark[:e.nSuper]
			sc.bestW = sc.bestW[:e.nSuper]
			sc.bestIdx = sc.bestIdx[:e.nSuper]
		}
		for i := range sc.mark {
			sc.mark[i] = -1
		}
		sc.stamp = -1
		sc.nbr = sc.nbr[:0]
	}
}

// rebuildIncidence rebuilds the supernode → incident-edge lists as a single
// CSR arena. Per-shard degree histograms give every (shard, supernode) pair
// a deterministic write window, so the parallel fill preserves ascending
// edge-index order inside every list at any worker count — the same order
// the old sequential append produced.
func (e *engine) rebuildIncidence() {
	n := e.nSuper
	w := e.workers
	cnt := make([][]int32, w)
	par.ForShard(w, len(e.edges), func(shard, lo, hi int) {
		c := make([]int32, n)
		for ei := lo; ei < hi; ei++ {
			if !e.alive[ei] {
				continue
			}
			c[e.edges[ei].A]++
			c[e.edges[ei].B]++
		}
		cnt[shard] = c
	})
	off := make([]int32, n+1)
	starts := make([][]int32, w)
	for s := range starts {
		if cnt[s] != nil {
			starts[s] = make([]int32, n)
		}
	}
	total := int32(0)
	for v := 0; v < n; v++ {
		off[v] = total
		for s := 0; s < w; s++ {
			if cnt[s] == nil {
				continue
			}
			starts[s][v] = total
			total += cnt[s][v]
		}
	}
	off[n] = total
	arena := make([]int32, total)
	par.ForShard(w, len(e.edges), func(shard, lo, hi int) {
		cur := starts[shard]
		for ei := lo; ei < hi; ei++ {
			if !e.alive[ei] {
				continue
			}
			ed := &e.edges[ei]
			arena[cur[ed.A]] = int32(ei)
			cur[ed.A]++
			arena[cur[ed.B]] = int32(ei)
			cur[ed.B]++
		}
	})
	e.inc = make([][]int32, n)
	for v := 0; v < n; v++ {
		e.inc[v] = arena[off[v]:off[v+1]]
	}
}

// resetActive makes every supernode a live singleton cluster (start of an
// epoch: D_0 = singletons).
func (e *engine) resetActive() {
	e.active = e.active[:0]
	for v := 0; v < e.nSuper; v++ {
		e.clusterOf[v] = int32(v)
		e.active = append(e.active, int32(v))
	}
}

func (e *engine) addSpanner(orig int) bool {
	if e.inSpanner[orig] {
		return false
	}
	e.inSpanner[orig] = true
	e.spanCount++
	return true
}

// phase1 is every variant's grow loop over the shared epoch/iteration
// schedule (see Schedule): epoch i samples with exponent (t+1)^{i-1}/k per
// iteration, cumulative exponents clamp at (k-1)/k, and a contraction
// follows each epoch (none under classicBS). Each iteration commits one
// plan: the Phase 1 coin set's, or under whp the run planWHP picks. ctx is
// checkpointed once per grow iteration — the engine's chunk size — so a
// canceled build stops within one iteration's work.
func (e *engine) phase1(ctx context.Context) error {
	n := float64(e.g.N())
	if n < 2 {
		return nil
	}
	schedule := Schedule(e.k, e.t)
	for _, spec := range schedule {
		if err := core.Check(ctx); err != nil {
			return err
		}
		if e.nAlive == 0 {
			return nil
		}
		if spec.Iter == 1 {
			e.stats.Probabilities = append(e.stats.Probabilities,
				math.Pow(n, -math.Pow(float64(e.t+1), float64(spec.Epoch-1))/float64(e.k)))
		}
		sp := e.tracer.StartSpan("spanner.grow").
			SetInt("epoch", int64(spec.Epoch)).SetInt("iter", int64(spec.Iter))
		var iterStart time.Time
		if e.met.iterSeconds != nil {
			iterStart = time.Now()
		}
		p := math.Pow(n, -spec.Exponent)
		var plan *iterPlan
		if e.cfg.whp != nil {
			plan = e.planWHP(p, spec)
		} else {
			coins := xrand.NewCoins(p, e.cfg.Seed, CoinDomainPhase1, uint64(spec.Epoch), uint64(spec.Iter))
			plan = e.planIteration(func(center int32) bool { return coins.At(uint64(center)) })
		}
		e.applyIteration(plan)
		if e.met.iterSeconds != nil {
			e.met.iterSeconds.Observe(time.Since(iterStart).Seconds())
		}
		e.met.growIters.Inc()
		e.met.aliveEdges.Set(int64(e.nAlive))
		e.met.edgesSelected.Set(int64(e.spanCount))
		sp.SetInt("clusters", int64(len(e.active))).
			SetInt("alive_edges", int64(e.nAlive)).
			SetInt("spanner_edges", int64(e.spanCount)).End()
		e.stats.Iterations++
		e.emit("grow", spec.Epoch, len(schedule))
		if spec.LastOfEpoch && !e.cfg.classicBS {
			sc := e.tracer.StartSpan("spanner.step-c").SetInt("epoch", int64(spec.Epoch))
			e.contract()
			e.met.contractions.Inc()
			e.met.supernodes.Set(int64(e.nSuper))
			sc.SetInt("supernodes", int64(e.nSuper)).
				SetInt("alive_edges", int64(e.nAlive)).End()
			e.stats.Epochs++
			e.emit("contract", spec.Epoch, len(schedule))
		}
	}
	return nil
}

// joinRec records that supernode v joins the sampled cluster centered at
// center via original edge orig (Step B3).
type joinRec struct {
	v, center int32
	orig      int
}

// iterPlan is one grow iteration (Steps B1–B4) planned under one coin set,
// before any engine state is mutated: Theorem 8.1 plans the same iteration
// under several coin sets and commits one. Every list is in supernode order
// (the per-shard lists of planRange concatenated in shard order), so
// applyIteration consumes them in single passes with no lookup structure.
type iterPlan struct {
	sampled []int32   // sampled cluster centers, in active order
	adds    []int     // spanner additions (may repeat, or be chosen already)
	joins   []joinRec // Step B3 joins, ascending by v
	kills   []int32   // alive edges B3/B4 discard; an edge may appear twice
}

// planIteration evaluates Steps B1-B4 under the given coin without mutating
// any engine state (the sampled-flag scratch is restored before returning).
func (e *engine) planIteration(coin func(center int32) bool) *iterPlan {
	// Step B1: sample the live clusters. The coin for a cluster is keyed by
	// its center's *original vertex*, which is stable across execution
	// planes and contractions; coins are pure functions, so they evaluate in
	// parallel and assemble in active order.
	spCoins := e.tracer.StartSpan("spanner.b1-coins").SetInt("clusters", int64(len(e.active)))
	flags := par.Map(e.workers, len(e.active), func(i int) bool {
		return coin(e.centerVertex[e.active[i]])
	})
	// Assign every active flag (not just the sampled ones): clusters that
	// survived the previous iteration still carry a stale true flag that a
	// false coin must overwrite.
	var sampled []int32
	for i, c := range e.active {
		e.sampledFlag[c] = flags[i]
		if flags[i] {
			sampled = append(sampled, c)
		}
	}
	spCoins.SetInt("sampled", int64(len(sampled))).End()
	defer func() {
		for _, c := range e.active {
			e.sampledFlag[c] = false
		}
	}()

	// Steps B2-B4: process every supernode not inside a sampled cluster.
	// Decisions are taken against the iteration-start snapshot, matching the
	// parallel (per-machine) semantics of the MPC implementation — which is
	// exactly why the supernode space shards cleanly: every worker reads the
	// same snapshot and appends decisions for its own index range. Shard 0's
	// part becomes the plan and the others append to it in shard order.
	parts := make([]iterPlan, len(e.scratch))
	par.ForShard(e.workers, e.nSuper, func(shard, lo, hi int) {
		e.planRange(&e.scratch[shard], &parts[shard], int32(lo), int32(hi))
	})
	plan := &parts[0]
	plan.sampled = sampled
	for _, p := range parts[1:] {
		plan.adds = append(plan.adds, p.adds...)
		plan.joins = append(plan.joins, p.joins...)
		plan.kills = append(plan.kills, p.kills...)
	}
	return plan
}

// gather collects into sc the minimum-weight alive edge from supernode v
// toward each neighboring cluster (Definition 4.1's E(v, c) minima, ties
// broken by original edge id): sc.nbr lists the clusters in first-seen
// order, sc.bestW/sc.bestIdx hold each one's minimum.
func (e *engine) gather(sc *growScratch, v int32) {
	sc.stamp++
	sc.nbr = sc.nbr[:0]
	for _, ei := range e.inc[v] {
		if !e.alive[ei] {
			continue
		}
		u := e.across(ei, v)
		cu := e.clusterOf[u]
		if CheckInvariants && cu == cluster.None {
			panic(fmt.Sprintf("spanner: alive edge %d touches finished supernode %d", ei, u))
		}
		ed := &e.edges[ei]
		if sc.mark[cu] != sc.stamp {
			sc.mark[cu] = sc.stamp
			sc.bestW[cu] = ed.W
			sc.bestIdx[cu] = ei
			sc.nbr = append(sc.nbr, cu)
		} else if ed.W < sc.bestW[cu] || (ed.W == sc.bestW[cu] && ed.Orig < e.edges[sc.bestIdx[cu]].Orig) {
			sc.bestW[cu] = ed.W
			sc.bestIdx[cu] = ei
		}
	}
}

// across returns the endpoint of edge ei opposite supernode v.
func (e *engine) across(ei, v int32) int {
	ed := &e.edges[ei]
	if ed.A == int(v) {
		return ed.B
	}
	return ed.A
}

// planRange evaluates Steps B2-B4 for supernodes [lo, hi) against the
// iteration-start snapshot. It writes only to the shard's own scratch and
// part, so ranges run concurrently.
func (e *engine) planRange(sc *growScratch, p *iterPlan, lo, hi int32) {
	for v := lo; v < hi; v++ {
		cv := e.clusterOf[v]
		if cv == cluster.None || e.sampledFlag[cv] {
			continue
		}
		e.gather(sc, v)
		// Step B3: closest sampled neighboring cluster, if any. Ties break
		// by (weight, center vertex id) for determinism.
		closest := int32(-1)
		for _, cu := range sc.nbr {
			if !e.sampledFlag[cu] {
				continue
			}
			if closest == -1 || sc.bestW[cu] < sc.bestW[closest] ||
				(sc.bestW[cu] == sc.bestW[closest] && e.centerVertex[cu] < e.centerVertex[closest]) {
				closest = cu
			}
		}
		if closest < 0 {
			// Step B4: no sampled neighbor — keep one minimum edge per
			// neighboring cluster and discard every alive edge of v.
			for _, cu := range sc.nbr {
				p.adds = append(p.adds, e.edges[sc.bestIdx[cu]].Orig)
			}
			for _, ei := range e.inc[v] {
				if e.alive[ei] {
					p.kills = append(p.kills, ei)
				}
			}
			continue
		}
		orig := e.edges[sc.bestIdx[closest]].Orig
		p.adds = append(p.adds, orig)
		p.joins = append(p.joins, joinRec{v: v, center: closest, orig: orig})
		// Step B3 second bullet: clusters reachable strictly cheaper than the
		// join edge also get their minimum edge; v then discards every edge
		// toward them and toward the cluster it joins.
		w0 := sc.bestW[closest]
		for _, cu := range sc.nbr {
			if sc.bestW[cu] < w0 {
				p.adds = append(p.adds, e.edges[sc.bestIdx[cu]].Orig)
			}
		}
		for _, ei := range e.inc[v] {
			if !e.alive[ei] {
				continue
			}
			if cu := e.clusterOf[e.across(ei, v)]; cu == closest || sc.bestW[cu] < w0 {
				p.kills = append(p.kills, ei)
			}
		}
	}
}

// applyIteration commits a plan: spanner additions, the B3/B4 discards,
// cluster formation (Step B5), intra-cluster cleanup (Step B6), and the new
// live cluster set.
func (e *engine) applyIteration(plan *iterPlan) {
	for _, c := range plan.sampled {
		e.sampledFlag[c] = true
	}
	for _, orig := range plan.adds {
		if e.addSpanner(orig) {
			e.stats.Phase1Edges++
		}
	}

	spSweep := e.tracer.StartSpan("spanner.removal-sweep").
		SetInt("kills", int64(len(plan.kills)))
	for _, ei := range plan.kills {
		if e.alive[ei] {
			e.alive[ei] = false
			e.nAlive--
		}
	}
	spSweep.SetInt("alive_edges", int64(e.nAlive)).End()

	// Step B5: form D_j — sampled clusters keep their members and absorb the
	// joining supernodes (plan.joins, walked by one cursor in supernode
	// order); everything else dissolves. Serial: recordMerge mutates the
	// cluster-tree union-find, and the pass is O(nSuper).
	joins := plan.joins
	for v := int32(0); int(v) < e.nSuper; v++ {
		cv := e.clusterOf[v]
		if cv == cluster.None || e.sampledFlag[cv] {
			continue
		}
		if len(joins) > 0 && joins[0].v == v {
			e.clusterOf[v] = joins[0].center
			e.recordMerge(v, joins[0].orig)
			joins = joins[1:]
		} else {
			e.clusterOf[v] = cluster.None
		}
	}

	// Step B6: drop intra-cluster edges (cluster labels are stable now).
	// Edges shard across workers, each writing only its own alive slot; the
	// per-shard kill counts sum into nAlive.
	dead := make([]int, e.workers)
	par.ForShard(e.workers, len(e.edges), func(shard, lo, hi int) {
		killed := 0
		for ei := lo; ei < hi; ei++ {
			if !e.alive[ei] {
				continue
			}
			ed := &e.edges[ei]
			ca, cb := e.clusterOf[ed.A], e.clusterOf[ed.B]
			if CheckInvariants && (ca == cluster.None || cb == cluster.None) {
				panic(fmt.Sprintf("spanner: post-join alive edge %d has finished endpoint", ei))
			}
			if ca == cb {
				e.alive[ei] = false
				killed++
			}
		}
		dead[shard] = killed
	})
	for _, d := range dead {
		e.nAlive -= d
	}

	// New live cluster set: the sampled centers, in increasing order
	// (e.active was sorted, so the filtered list stays sorted).
	next := e.active[:0]
	for _, c := range e.active {
		if e.sampledFlag[c] {
			next = append(next, c)
		} else {
			e.sampledFlag[c] = false
		}
	}
	e.active = next
}

// recordMerge notes that supernode v was absorbed via original edge orig:
// the edge joins v's tree component to the engulfing cluster's component,
// whose root (center) survives.
func (e *engine) recordMerge(v int32, orig int) {
	ed := e.g.Edge(orig)
	joinerEnd, hostEnd := ed.U, ed.V
	if int32(e.part.Super(ed.U)) != v {
		joinerEnd, hostEnd = ed.V, ed.U
	}
	hostCenter := e.compCenter[e.treeUF.Find(hostEnd)]
	e.treeUF.Union(joinerEnd, hostEnd)
	e.compCenter[e.treeUF.Find(hostEnd)] = hostCenter
	e.treeEdges = append(e.treeEdges, orig)
}

// contract performs Step C: final clusters become the supernodes of the next
// epoch's quotient graph, keeping one minimum-weight edge per supernode pair.
func (e *engine) contract() {
	// New supernode ids: rank of cluster centers in increasing center order
	// (deterministic across planes because e.active is sorted).
	rank := make([]int32, e.nSuper)
	for i := range rank {
		rank[i] = cluster.None
	}
	newCenter := make([]int32, 0, len(e.active))
	for i, c := range e.active {
		rank[c] = int32(i)
		newCenter = append(newCenter, e.centerVertex[c])
	}
	newID := make([]int32, e.nSuper)
	par.For(e.workers, e.nSuper, func(v int) {
		if cv := e.clusterOf[v]; cv != cluster.None {
			newID[v] = rank[cv]
		} else {
			newID[v] = cluster.None
		}
	})
	if err := e.part.ContractWorkers(newID, len(e.active), e.workers); err != nil {
		panic(err) // internal relabeling is always well-formed
	}

	// Relabel the surviving edges into the new supernode space: sharded with
	// per-shard buffers concatenated in shard order, then the pair dedup
	// (Step C's min-weight representative per pair).
	parts := make([][]cluster.QEdge, e.workers)
	par.ForShard(e.workers, len(e.edges), func(shard, lo, hi int) {
		var kept []cluster.QEdge
		for ei := lo; ei < hi; ei++ {
			if !e.alive[ei] {
				continue
			}
			ed := e.edges[ei]
			a, b := newID[ed.A], newID[ed.B]
			if CheckInvariants && (a == cluster.None || b == cluster.None || a == b) {
				panic(fmt.Sprintf("spanner: contraction found ill-placed alive edge %d", ei))
			}
			kept = append(kept, cluster.QEdge{A: int(a), B: int(b), W: ed.W, Orig: ed.Orig})
		}
		parts[shard] = kept
	})
	kept := make([]cluster.QEdge, 0, e.nAlive)
	for _, p := range parts {
		kept = append(kept, p...)
	}
	e.edges = cluster.MinDedup(kept, e.workers, &e.dedupSorter)
	e.alive = make([]bool, len(e.edges))
	for i := range e.alive {
		e.alive[i] = true
	}
	e.nAlive = len(e.edges)

	e.nSuper = len(e.active)
	e.centerVertex = newCenter
	e.clusterOf = make([]int32, e.nSuper)
	e.resetEpochScratch()
	e.rebuildIncidence()
	e.resetActive()
	e.stats.SupernodeHistory = append(e.stats.SupernodeHistory, e.nSuper)
}

// phase2 connects what remains. In the general algorithm the surviving edges
// already carry one minimum-weight representative per final supernode pair
// (Step C), so all of them enter the spanner. The classic [BS07] variant
// instead adds, for every vertex with surviving edges, the minimum edge
// toward each final cluster.
func (e *engine) phase2() {
	if e.nAlive == 0 {
		return
	}
	if !e.cfg.classicBS {
		parts := make([][]cluster.QEdge, e.workers)
		par.ForShard(e.workers, len(e.edges), func(shard, lo, hi int) {
			var live []cluster.QEdge
			for ei := lo; ei < hi; ei++ {
				if e.alive[ei] {
					live = append(live, e.edges[ei])
				}
			}
			parts[shard] = live
		})
		live := make([]cluster.QEdge, 0, e.nAlive)
		for _, p := range parts {
			live = append(live, p...)
		}
		for _, ed := range cluster.MinDedup(live, e.workers, &e.dedupSorter) {
			e.addSpanner(ed.Orig)
		}
		return
	}
	// Classic Phase 2: per-vertex, per-cluster minima over the snapshot,
	// gathered like the grow iterations' (per-shard scratch, per-shard adds
	// merged in shard order).
	adds := make([][]int, len(e.scratch))
	par.ForShard(e.workers, e.nSuper, func(shard, lo, hi int) {
		sc := &e.scratch[shard]
		var out []int
		for v := int32(lo); int(v) < hi; v++ {
			e.gather(sc, v)
			for _, cu := range sc.nbr {
				out = append(out, e.edges[sc.bestIdx[cu]].Orig)
			}
		}
		adds[shard] = out
	})
	for _, p := range adds {
		for _, orig := range p {
			e.addSpanner(orig)
		}
	}
}

// measureRadius computes the radii of the final cluster trees: every tree
// component is measured from its surviving center.
func (e *engine) measureRadius() cluster.TreeStats {
	rootSet := make(map[int]bool)
	var roots []int
	for _, id := range e.treeEdges {
		r := int(e.compCenter[e.treeUF.Find(e.g.Edge(id).U)])
		if !rootSet[r] {
			rootSet[r] = true
			roots = append(roots, r)
		}
	}
	return cluster.MeasureTrees(e.g, e.treeEdges, roots)
}
