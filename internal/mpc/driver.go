package mpc

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/par"
	"mpcspanner/internal/spanner"
	"mpcspanner/internal/xrand"
)

// none marks a dead label.
const none = int32(-1)

// keyEncoding packs the label pair each global sort orders by into one
// uint64 key, so every sort runs as one radix shuffle (Sim.SortByKey).
// Labels are original-vertex ids below n ≤ 2³¹, so a pair takes
// 2·⌈log₂ n⌉ ≤ 62 bits. No key carries a weight: the passes that read a
// group take its (W, Orig)-least tuple by scanning it, and nothing else
// depends on the order inside a group.
type keyEncoding struct {
	group func(*Tuple) uint64 // (Src, cluster[Dst]) — the B2 grouping sort
	pair  func(*Tuple) uint64 // (min, max) — the dedup sort
}

// newKeyEncoding builds the encoding for labels in [0, n), reading cluster
// labels from cluster, whose entries the caller keeps current. The closures
// are built once so hot loops don't re-bind them.
func newKeyEncoding(n int, cluster []int32) *keyEncoding {
	vb := uint(bits.Len(uint(max(n, 1) - 1)))
	return &keyEncoding{
		group: func(t *Tuple) uint64 { return uint64(t.Src)<<vb | uint64(cluster[t.Dst]) },
		pair: func(t *Tuple) uint64 {
			return uint64(min(t.Src, t.Dst))<<vb | uint64(max(t.Src, t.Dst))
		},
	}
}

// checkTupleRange rejects a graph whose vertex or edge ids do not fit the
// int32 fields of a Tuple. Within it, a label pair fits 62 key bits and the
// 2m tuples fit the radix sorter's uint32 index.
func checkTupleRange(n, m int) error {
	if n > math.MaxInt32 || m > math.MaxInt32 {
		return &core.OptionError{Field: "mpc: graph", Value: fmt.Sprintf("n=%d, m=%d", n, m),
			Reason: "vertex and edge ids must fit int32 tuple labels"}
	}
	return nil
}

// Options configures a distributed spanner build beyond its algorithm
// parameters.
type Options struct {
	// Gamma is the memory exponent of the simulated machines, γ ∈ (0, 1].
	Gamma float64

	// Workers sizes the real goroutine pool that executes the simulated
	// machines' local passes (par conventions: 0 = GOMAXPROCS, 1 = serial).
	// Rounds, memory accounting and the constructed spanner are
	// bit-identical at every worker count; negative values are rejected.
	Workers int

	// MemoryBudget, when positive, caps the host-process bytes the tuple
	// store may keep resident: contents past the budget spill to
	// internal/extmem run files and global sorts run as external merge
	// sorts. The constructed spanner and the simulated round bill are
	// bit-identical to an unbudgeted build at every worker count. Zero or
	// negative keeps everything resident: the store never spills and
	// registers no extmem_* series.
	MemoryBudget int64

	// Progress, when non-nil, receives one core.ProgressEvent per simulated
	// checkpoint ("mpc-grow" per grow iteration, "mpc-contract" per epoch,
	// "mpc-phase2"), carrying the round bill so far. Emitted synchronously
	// from the driver loop; the callback must not call back into the
	// simulator.
	Progress func(core.ProgressEvent)

	// Metrics, when non-nil, attaches the simulator's cost counters (rounds,
	// sorts, tuple volume, peak machine load — see Sim.SetMetrics) and the
	// driver's per-iteration wall-clock histogram (mpc_iteration_seconds) to
	// the registry. nil runs fully uninstrumented: the simulator carries
	// inert nil handles and the driver reads no clocks.
	Metrics *obs.Registry
}

// Result reports a distributed spanner construction: the spanner itself plus
// the simulated-cluster cost profile that Theorem 1.1 bounds.
type Result struct {
	EdgeIDs []int

	Rounds           int // simulated MPC rounds (Theorem 1.1's O((1/γ)·t·log k/log(t+1)))
	Iterations       int // grow iterations executed
	Epochs           int // contractions executed
	Machines         int
	MemoryPerMachine int   // S = ⌈n^γ⌉ tuples
	PeakMachineLoad  int   // never exceeds S (validated every primitive)
	PeakTotalTuples  int   // never exceeds the initial 2m footprint
	Sorts            int   // global sorts charged
	TreeOps          int   // aggregation-tree operations charged
	TuplesMoved      int64 // total communication volume in tuples
	Workers          int   // resolved goroutine pool size of the run

	// Out-of-core profile of a budgeted run (zero when Options.MemoryBudget
	// was unset): the byte budget in force, cumulative bytes spilled to
	// extmem run files, run files written, and external merge passes.
	MemoryBudget int64
	SpilledBytes int64
	SpillRuns    int64
	MergePasses  int64
}

// BuildSpannerCtx executes the general algorithm (Section 5) on the
// simulated MPC cluster with memory exponent opt.Gamma, following Section
// 6's implementation: edges live as directed tuple pairs whose cluster
// labels the host keeps once, in a label-indexed array; every iteration is
// one grouping sort + segmented minima/decisions + mirror-side label
// routing; every epoch ends with a contraction realized as a relabel +
// dedup sort, the relabel folded into the epoch's last grow pass. The
// routing's (Dst, cluster[Src]) sort is charged to the round bill but not
// performed: the host delivers its labels through label- and edge-indexed
// arrays, so each grow iteration permutes the tuples once. Each simulated
// machine's local pass runs as a real goroutine of a pool of opt.Workers,
// without touching the model-level accounting.
//
// The run is driven by the same spanner.Schedule and the same
// xrand.CoinAt(p, seed, spanner.CoinDomainPhase1, epoch, iter, center) coins
// (evaluated through xrand.NewCoins, which hoists the per-iteration prefix)
// as the sequential reference engine, so for equal inputs and seeds the
// returned spanner is bit-identical to spanner.GeneralCtx's — the test suite
// asserts this cross-plane equality.
//
// The driver checkpoints ctx once per simulated grow iteration (the
// round-level chunk of Section 6) and returns core.Canceled(ctx.Err()) —
// matching errors.Is against both core.ErrCanceled and ctx.Err() — at the
// first checkpoint after cancellation, with the worker pool joined.
// Checkpoints never change what is computed: uncanceled runs are
// bit-identical at every worker count.
func BuildSpannerCtx(ctx context.Context, g *graph.Graph, k, t int, seed uint64, opt Options) (*Result, error) {
	if k < 1 || t < 1 {
		return nil, &core.OptionError{Field: "mpc: (k, t)", Value: fmt.Sprintf("(%d, %d)", k, t),
			Reason: "parameters must satisfy k >= 1 and t >= 1"}
	}
	if err := par.CheckWorkers("mpc: Options.Workers", opt.Workers); err != nil {
		return nil, err
	}
	if err := checkTupleRange(g.N(), g.M()); err != nil {
		return nil, err
	}
	sim, err := NewSimBudget(g.N(), 2*g.M(), opt.Gamma, opt.MemoryBudget)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	sim.SetWorkers(opt.Workers)
	sim.SetMetrics(opt.Metrics)
	iterSeconds := opt.Metrics.Histogram("mpc_iteration_seconds", obs.LatencyBuckets)

	// Input: two directed copies of every edge, labeled by their endpoints,
	// each its own supernode and cluster. Streamed through the store so a
	// budgeted build never materializes the 2m-tuple slice.
	err = sim.LoadFrom(2*g.M(), func(emit func(Tuple)) {
		for id, e := range g.Edges() {
			u, v := int32(e.U), int32(e.V)
			emit(Tuple{Src: u, Dst: v, W: e.W, Orig: int32(id)})
			emit(Tuple{Src: v, Dst: u, W: e.W, Orig: int32(id)})
		}
	})
	if err != nil {
		return nil, err
	}

	res := &Result{Machines: sim.Machines(), MemoryPerMachine: sim.MemoryPerMachine(), Workers: sim.Workers()}
	ds := newDriverScratch(g.N(), g.M(), sim.Workers())
	enc := newKeyEncoding(g.N(), ds.cluster)
	n := float64(g.N())

	// Iteration reports the driver's global grow-iteration count so the
	// fraction of TotalIterations is monotone; the simulated plane tracks
	// live edges (tuple pairs), not supernodes.
	emit := func(stage string, epoch, total int) {
		if opt.Progress != nil {
			opt.Progress(core.ProgressEvent{Stage: stage, Algorithm: "general",
				Epoch: epoch, Iteration: res.Iterations, TotalIterations: total,
				AliveEdges: sim.Len() / 2, SpannerEdges: ds.spanCount, Rounds: sim.Rounds()})
		}
	}
	schedule := spanner.Schedule(k, t)
	for _, spec := range schedule {
		if err := core.Check(ctx); err != nil {
			return nil, err
		}
		if sim.Len() == 0 {
			break
		}
		p := math.Pow(n, -spec.Exponent)
		var iterStart time.Time
		if iterSeconds != nil {
			iterStart = time.Now()
		}
		if err := iterateDistributed(sim, p, uint64(spec.Epoch), uint64(spec.Iter), seed, spec.LastOfEpoch, ds, enc); err != nil {
			return nil, err
		}
		if iterSeconds != nil {
			iterSeconds.Observe(time.Since(iterStart).Seconds())
		}
		res.Iterations++
		emit("mpc-grow", spec.Epoch, len(schedule))
		// Step C: the last grow pass relabeled, so the dedup sort remains.
		if spec.LastOfEpoch && sim.Len() > 0 {
			if err := dedupPairs(sim, enc); err != nil {
				return nil, err
			}
			res.Epochs++
			emit("mpc-contract", spec.Epoch, len(schedule))
		}
	}

	// Phase 2: one more dedup pass (idempotent after a trailing
	// contraction), then every surviving representative joins the spanner.
	if err := core.Check(ctx); err != nil {
		return nil, err
	}
	if sim.Len() > 0 {
		if err := dedupPairs(sim, enc); err != nil {
			return nil, err
		}
		if err := sim.Scan(func(t *Tuple) { ds.addSpanner(t.Orig) }); err != nil {
			return nil, err
		}
	}
	emit("mpc-phase2", 0, len(schedule))

	// The spanner membership bitmap is indexed by edge id, so the ascending
	// scan yields EdgeIDs already sorted.
	res.EdgeIDs = make([]int, 0, ds.spanCount)
	for id, in := range ds.inSpanner {
		if in {
			res.EdgeIDs = append(res.EdgeIDs, id)
		}
	}
	res.Rounds = sim.Rounds()
	res.PeakMachineLoad = sim.PeakMachineLoad()
	res.PeakTotalTuples = sim.PeakTotalTuples()
	res.Sorts = sim.Sorts()
	res.TreeOps = sim.TreeOps()
	res.TuplesMoved = sim.TuplesMoved()
	if st := sim.SpillStats(); st.BudgetBytes > 0 {
		res.MemoryBudget = st.BudgetBytes
		res.SpilledBytes = st.SpilledBytes
		res.SpillRuns = st.RunFiles
		res.MergePasses = st.MergePasses
	}
	return res, nil
}

// decisionPart is one shard's share of an iteration's B3/B4 decisions;
// parts concatenate in shard order (= segment order).
type decisionPart struct {
	adds  []int32 // spanner additions (edge ids)
	kills []int32 // edge ids of every tuple in a discarded (Src, cluster[Dst]) group
}

// groupMin is one (Src, cluster[Dst]) group's minimum-weight representative
// and the group's index range [lo, hi) in its Src segment.
type groupMin struct {
	c      int32
	w      float64
	orig   int32
	lo, hi int
}

// driverScratch is the per-build state the iteration loop reuses across
// rounds: the spanner-membership bitmap, the discarded-edge mark, the
// label-indexed cluster labels and plan, and the per-shard decision buffers.
type driverScratch struct {
	inSpanner []bool // edge id -> chosen (ascending scan = sorted EdgeIDs)
	spanCount int
	killed    []bool  // edge id -> discarded by some B3/B4 decision
	cluster   []int32 // supernode label -> current cluster label: the host's one copy
	next      []int32 // supernode label -> post-B5 cluster label, or none

	parts   []decisionPart
	groups  [][]groupMin // per-shard group-minima buffer
	badFlag []bool       // per-shard dead-label fail-fast flags
	badTup  []Tuple      // the offending tuple each failing shard saw first
}

func newDriverScratch(n, m, workers int) *driverScratch {
	return &driverScratch{
		inSpanner: make([]bool, m),
		killed:    make([]bool, m),
		cluster:   make([]int32, n),
		next:      make([]int32, n),
		parts:     make([]decisionPart, workers),
		groups:    make([][]groupMin, workers),
		badFlag:   make([]bool, workers),
		badTup:    make([]Tuple, workers),
	}
}

func (ds *driverScratch) addSpanner(orig int32) {
	if !ds.inSpanner[orig] {
		ds.inSpanner[orig] = true
		ds.spanCount++
	}
}

// iterateDistributed is one grow iteration (Steps B1–B6) in tuple form;
// with contract set, its rewrite pass also does Step C's relabel.
func iterateDistributed(sim *Sim, p float64, epoch, iter, seed uint64, contract bool, ds *driverScratch, enc *keyEncoding) error {
	// Each supernode's cluster, which B2's key reads: its own in an epoch's
	// first iteration, the previous iteration's plan after that.
	cluster, next := ds.cluster, ds.next
	if iter == 1 {
		for i := range cluster {
			cluster[i] = int32(i)
		}
	} else {
		copy(cluster, next)
	}

	// B1 — sampling. The coin for a cluster is a pure function of its
	// center label, so every machine evaluates it locally: no rounds.
	coins := xrand.NewCoins(p, seed, spanner.CoinDomainPhase1, epoch, iter)
	sampled := func(label int32) bool { return coins.At(uint64(label)) }

	// B2 — group edges of processed supernodes: sort by (Src, cluster[Dst])
	// so each (v, c) group is contiguous, in one radix shuffle.
	if err := sim.SortByKey(enc.group); err != nil {
		return err
	}

	// B3/B4 — segmented minima and per-supernode decisions. Every Src
	// segment is independent, so segments fan out over the worker pool —
	// exactly the per-machine group-leader work of Section 6; crossing
	// machine boundaries costs one Find-Minimum tree and one
	// decision-gather tree, charged below as before. The pass plans the
	// whole iteration as ordered lists: per-shard spanner additions, the
	// edge ids of every discarded group, and each supernode's B5 cluster in
	// next — every live supernode heads exactly one Src segment, so shards
	// write disjoint entries.
	parts := ds.parts
	for i := range parts {
		parts[i].adds = parts[i].adds[:0]
		parts[i].kills = parts[i].kills[:0]
	}
	for i := range next {
		next[i] = none
	}
	// badFlag/badTup record the first dead-labeled tuple each shard saw, so
	// the fail-fast error can name the tuple; the lowest shard's find is
	// reported, matching the serial scan order.
	badFlag, badTup := ds.badFlag, ds.badTup
	for i := range badFlag {
		badFlag[i] = false
	}
	groupsByShard := ds.groups // reused across each shard's segments
	segErr := sim.ForEachSegment(func(a, b *Tuple) bool { return a.Src == b.Src }, func(shard int, seg []Tuple) {
		if badFlag[shard] {
			return // shard already failing fast
		}
		// Every tuple must carry live labels, sampled segment or not — the
		// same invariant the serial scan enforced.
		for gi := range seg {
			if cluster[seg[gi].Src] == none || cluster[seg[gi].Dst] == none {
				badFlag[shard] = true
				badTup[shard] = seg[gi]
				return
			}
		}
		cur := seg[0].Src
		if c := cluster[cur]; sampled(c) {
			next[cur] = c // supernodes inside sampled clusters stay
			return
		}
		// Group minima: the (W, Orig)-least tuple of each (Src,
		// cluster[Dst]) run, found by the pass that reads the run.
		groups := groupsByShard[shard][:0]
		for gi := range seg {
			t := &seg[gi]
			c := cluster[t.Dst]
			if n := len(groups); n > 0 && groups[n-1].c == c {
				gm := &groups[n-1]
				gm.hi++
				if t.W < gm.w || t.W == gm.w && t.Orig < gm.orig {
					gm.w, gm.orig = t.W, t.Orig
				}
				continue
			}
			groups = append(groups, groupMin{c: c, w: t.W, orig: t.Orig, lo: gi, hi: gi + 1})
		}
		groupsByShard[shard] = groups
		// Closest sampled neighbor cluster by (weight, center label).
		best := -1
		for i, gm := range groups {
			if !sampled(gm.c) {
				continue
			}
			if best == -1 || gm.w < groups[best].w ||
				(gm.w == groups[best].w && gm.c < groups[best].c) {
				best = i
			}
		}
		part := &parts[shard]
		if best < 0 {
			// B4: keep each group's minimum and discard every tuple of v;
			// v's cluster dissolves (next stays none).
			for _, gm := range groups {
				part.adds = append(part.adds, gm.orig)
			}
			for gi := range seg {
				part.kills = append(part.kills, seg[gi].Orig)
			}
			return
		}
		// B3: join the closest sampled cluster, and keep the minimum toward
		// every strictly cheaper cluster; all those groups are discarded.
		joinW := groups[best].w
		next[cur] = groups[best].c
		for i, gm := range groups {
			if i == best || gm.w < joinW {
				part.adds = append(part.adds, gm.orig)
				for j := gm.lo; j < gm.hi; j++ {
					part.kills = append(part.kills, seg[j].Orig)
				}
			}
		}
	})
	if segErr != nil {
		return segErr
	}
	for i, bad := range badFlag {
		if bad {
			t := badTup[i]
			return fmt.Errorf("mpc: tuple with dead label survived: %+v (clusters %d, %d)", t, cluster[t.Src], cluster[t.Dst])
		}
	}
	killed := ds.killed
	for i := range parts {
		for _, orig := range parts[i].adds {
			ds.addSpanner(orig)
		}
		for _, orig := range parts[i].kills {
			killed[orig] = true
		}
	}
	sim.ChargeTree(2) // segmented minima + decision gathering

	// Removal + join application. The Src side rides the current sort
	// order (one broadcast tree); the mirror side needs a resort by
	// (Dst, cluster[Src]), which puts every mirror copy of a discarded (v, c)
	// group in one run, plus its own broadcast tree. The host delivers
	// that routing through next and killed, so the sort is charged, not
	// performed: no pass reads the order it would leave.
	sim.ChargeTree(1)
	if err := sim.ChargeSort(); err != nil {
		return err
	}
	sim.ChargeTree(1)

	// Removal, the B5 relabel and B6 run as one local pass: a discarded
	// group's mirror copies carry the same edge ids, so both copies drop by
	// id; survivors' endpoints adopt their planned clusters (sampled
	// clusters persist, joiners adopt their target, everything else dies
	// and can't appear on a live tuple); then intra-cluster edges vanish
	// and dead labels must not survive. An epoch's last pass also does
	// Step C's relabel: the planned clusters become the supernode labels.
	var lostCluster atomic.Int64
	err := sim.Filter(func(t *Tuple) bool {
		if killed[t.Orig] {
			return false
		}
		cs, cd := next[t.Src], next[t.Dst]
		if cs == none || cd == none {
			lostCluster.Add(1)
			return false
		}
		if contract {
			t.Src, t.Dst = cs, cd
		}
		return cs != cd
	})
	if err != nil {
		return err
	}
	if lostCluster.Load() > 0 {
		return fmt.Errorf("mpc: %d live tuples lost their cluster in iteration (%d, %d)",
			lostCluster.Load(), epoch, iter)
	}
	return nil
}

// dedupPairs sorts by unordered pair and keeps only the two directed copies
// of the minimum-weight edge per pair (one Sort + one boundary tree). The
// keep decision is a segmented aggregate: a scan of each pair segment finds
// its (W, Orig)-least tuple, and a tuple survives iff it carries that
// tuple's original edge id — evaluated per segment on the worker pool into
// the store's compaction mask. The survivors keep their relative order.
func dedupPairs(sim *Sim, enc *keyEncoding) error {
	if err := sim.SortByKey(enc.pair); err != nil {
		return err
	}
	sim.ChargeTree(1)
	return sim.FilterSegments(func(a, b *Tuple) bool {
		return a.Src == b.Src && a.Dst == b.Dst ||
			a.Src == b.Dst && a.Dst == b.Src
	}, func(seg []Tuple, keep []bool) {
		m := &seg[0]
		for i := range seg {
			if t := &seg[i]; t.W < m.W || t.W == m.W && t.Orig < m.Orig {
				m = t
			}
		}
		for i := range seg {
			keep[i] = seg[i].Orig == m.Orig
		}
	})
}

// RoundBound returns the model-level round budget of Theorem 1.1 for the
// simulated cluster: per iteration 2 sorts + 4 trees, per epoch one dedup
// sort + tree, plus the Phase 2 dedup.
func RoundBound(sim *Sim, k, t int) int {
	specs := spanner.Schedule(k, t)
	epochs := 0
	if len(specs) > 0 {
		epochs = specs[len(specs)-1].Epoch
	}
	perIter := 2*sim.SortRounds() + 4*sim.TreeRounds()
	perEpoch := sim.SortRounds() + sim.TreeRounds()
	return len(specs)*perIter + (epochs+1)*perEpoch
}
