// Package apsp implements the paper's primary application (Section 7,
// Corollary 1.4): O(log^{1+o(1)} n)-approximate all-pairs shortest paths in
// the near-linear memory regime of MPC, in poly(log log n) rounds.
//
// The pipeline is exactly the paper's: build a near-linear-size spanner with
// k = ⌈log₂ n⌉ (so size O(n^{1+1/k}·(t+log k)) = O(n·log log n) for
// t = Θ(log log n)) on the simulated sublinear-memory cluster, then collect
// the whole spanner onto one machine of the near-linear regime — it fits in
// Õ(n) words — where every distance query is answered locally on the spanner
// with the certified multiplicative error O(log^s n), s = log(2t+1)/log(t+1).
package apsp

import (
	"context"
	"fmt"
	"math"
	"sync"

	"mpcspanner/internal/core"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/mpc"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/oracle"
	"mpcspanner/internal/par"
	"mpcspanner/internal/spanner"
)

// Options configures an APSP approximation run.
type Options struct {
	// Seed drives the spanner construction.
	Seed uint64

	// T is the epoch length of the underlying spanner build. Zero selects
	// the Corollary 1.4 default ⌈log₂ log₂ n⌉ (stretch O(log^{1+o(1)} n) in
	// O(log² log n) rounds); T = 1 gives the faster O(log log n)-round,
	// O(log^{log 3} n)-approximation variant.
	T int

	// Gamma is the memory exponent of the machines used to *build* the
	// spanner (they stay in the strongly sublinear regime). Zero means 1/2.
	Gamma float64

	// Workers sizes the real goroutine pool behind the simulated build and
	// the serving-side oracle (par conventions: 0 = GOMAXPROCS, 1 = serial).
	// Results are bit-identical at every worker count; negative values are
	// rejected with a descriptive error.
	Workers int

	// Progress, when non-nil, receives the build's checkpoint events (the
	// MPC driver's "mpc-*" stages plus one final "collect" event). Same
	// contract as mpc.Options.Progress.
	Progress func(core.ProgressEvent)

	// Metrics, when non-nil, instruments the whole pipeline on one registry:
	// the simulated build (mpc_* series), the serving oracle created by
	// Result.Oracle() (oracle_* series), and the delta-stepping row fills of
	// that oracle and of Measure/MeasureCDF (dist_* series). nil runs
	// uninstrumented.
	Metrics *obs.Registry

	// MemoryBudget, when positive, caps the host-process bytes the build's
	// tuple store keeps resident (see mpc.Options.MemoryBudget): contents
	// past the budget spill to internal/extmem run files. The pipeline's
	// result is bit-identical either way.
	MemoryBudget int64
}

// Result is a completed Corollary 1.4 run.
type Result struct {
	SpannerEdgeIDs []int
	K, T           int

	BuildRounds   int // simulated rounds of the spanner construction
	CollectRounds int // rounds to gather the spanner onto one machine
	Rounds        int // total

	Bound            float64 // certified approximation factor O(log^s n)
	SpannerSize      int
	CollectorWords   int  // Õ(n) capacity of the near-linear machine
	FitsOneMachine   bool // the paper's key memory claim
	MemoryPerBuilder int  // n^γ capacity of the build-phase machines

	// Out-of-core profile of the build phase (zero when
	// Options.MemoryBudget was unset) — see mpc.Result.
	MemoryBudget int64
	SpilledBytes int64
	SpillRuns    int64
	MergePasses  int64

	g       *graph.Graph
	spanner *graph.Graph
	workers int           // serving-side pool size (par conventions)
	metrics *obs.Registry // carried into the shared oracle and measurers (may be nil)

	oracleOnce sync.Once
	oracle     *oracle.Oracle
}

// Params returns Corollary 1.4's parameter choice for an n-vertex graph:
// k = ⌈log₂ n⌉ and (if t is not forced) t = max(1, ⌈log₂ log₂ n⌉).
func Params(n, forcedT int) (k, t int) {
	if n < 4 {
		n = 4
	}
	k = int(math.Ceil(math.Log2(float64(n))))
	if forcedT > 0 {
		return k, forcedT
	}
	t = int(math.Ceil(math.Log2(math.Log2(float64(n)))))
	if t < 1 {
		t = 1
	}
	return k, t
}

// ApproxCtx runs the Section 7 pipeline under a context: the underlying MPC
// build checkpoints ctx once per simulated grow iteration and one more
// checkpoint precedes the collection step; a canceled context yields
// core.Canceled(ctx.Err()), matching errors.Is against both
// core.ErrCanceled and ctx.Err(). Uncanceled runs are bit-identical at every
// worker count.
func ApproxCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if g.N() < 2 {
		return nil, fmt.Errorf("apsp: need at least two vertices, got %d", g.N())
	}
	if err := par.CheckWorkers("apsp: Options.Workers", opt.Workers); err != nil {
		return nil, err
	}
	gamma := opt.Gamma
	if gamma == 0 {
		gamma = 0.5
	}
	k, t := Params(g.N(), opt.T)

	build, err := mpc.BuildSpannerCtx(ctx, g, k, t, opt.Seed,
		mpc.Options{Gamma: gamma, Workers: opt.Workers, Progress: opt.Progress,
			Metrics: opt.Metrics, MemoryBudget: opt.MemoryBudget})
	if err != nil {
		return nil, err
	}
	if err := core.Check(ctx); err != nil {
		return nil, err
	}

	// Collection: the spanner moves to a single machine of the near-linear
	// regime with capacity Õ(n) = n·⌈log₂ n⌉ words. Gathering |ES| tuples
	// through an aggregation tree of fan-in n^γ costs one tree of rounds.
	sim, err := mpc.NewSim(g.N(), 2*g.M(), gamma)
	if err != nil {
		return nil, err
	}
	collectRounds := sim.TreeRounds()
	if collectRounds < 1 {
		collectRounds = 1
	}
	collectorWords := g.N() * int(math.Ceil(math.Log2(float64(g.N()))))
	res := &Result{
		SpannerEdgeIDs:   build.EdgeIDs,
		K:                k,
		T:                t,
		BuildRounds:      build.Rounds,
		CollectRounds:    collectRounds,
		Rounds:           build.Rounds + collectRounds,
		Bound:            spanner.StretchBound(k, t),
		SpannerSize:      len(build.EdgeIDs),
		CollectorWords:   collectorWords,
		FitsOneMachine:   len(build.EdgeIDs) <= collectorWords,
		MemoryPerBuilder: build.MemoryPerMachine,
		MemoryBudget:     build.MemoryBudget,
		SpilledBytes:     build.SpilledBytes,
		SpillRuns:        build.SpillRuns,
		MergePasses:      build.MergePasses,
		g:                g,
		spanner:          g.Subgraph(build.EdgeIDs),
		workers:          opt.Workers,
		metrics:          opt.Metrics,
	}
	if opt.Progress != nil {
		opt.Progress(core.ProgressEvent{Stage: "collect", Algorithm: "apsp",
			Rounds: res.Rounds, SpannerEdges: res.SpannerSize})
	}
	if !res.FitsOneMachine {
		return res, fmt.Errorf("apsp: spanner of %d edges exceeds the near-linear machine's %d words",
			res.SpannerSize, collectorWords)
	}
	return res, nil
}

// Spanner returns the collected spanner.
func (r *Result) Spanner() *graph.Graph { return r.spanner }

// oracleBudgetBytes bounds the memory the Result's shared oracle may retain
// in cached rows (64 MiB) — the Result must not silently grow toward the
// Θ(n²) footprint Matrix warns about just because many sources were queried.
const oracleBudgetBytes = 64 << 20

// Oracle returns the serving layer over the collected spanner: a
// concurrency-safe, cached distance oracle. It is created on first use and
// shared by every subsequent call (including DistancesFrom), so repeated
// queries on hot sources cost one Dijkstra per distinct source rather than
// one per call. Its row budget is scaled so cached rows stay under 64 MiB
// regardless of n; for a different cache topology build one directly:
// oracle.New(r.Spanner(), opts).
func (r *Result) Oracle() *oracle.Oracle {
	r.oracleOnce.Do(func() {
		rows := oracleBudgetBytes / (8 * r.spanner.N())
		if rows < 1 {
			rows = 1
		}
		if rows > 1024 {
			rows = 1024
		}
		r.oracle = oracle.New(r.spanner, oracle.Options{MaxRows: rows, Workers: r.workers,
			Metrics: r.metrics})
	})
	return r.oracle
}

// DistancesFrom answers a single-source query on the collected spanner —
// the local computation of the machine holding it. Rows are served from the
// shared Oracle cache; the returned slice is a private copy the caller may
// keep or mutate.
func (r *Result) DistancesFrom(v int) []float64 {
	return append([]float64(nil), r.Oracle().Row(v)...)
}

// Matrix materializes the full approximate APSP matrix. It allocates Θ(n²)
// float64s — 800 MB at n = 10⁵ — and recomputes every row, so it is meant
// for verification-scale graphs only (BenchmarkMatrix tracks the cost).
// Callers with sparse or skewed query patterns should use Oracle instead,
// which caches only the rows actually touched under an LRU budget.
func (r *Result) Matrix() [][]float64 { return dist.APSP(r.spanner) }

// Measure samples the pairwise approximation ratio dist_H/dist_G over
// `sources` full-row fills.
func (r *Result) Measure(sources int, seed uint64) (dist.StretchReport, error) {
	return dist.PairStretchOpts(r.g, r.spanner, sources, seed, r.solverOptions())
}

// MeasureCDF returns empirical quantiles of the pairwise approximation
// distribution (experiment F3).
func (r *Result) MeasureCDF(sources int, quantiles []float64, seed uint64) ([]float64, error) {
	return dist.StretchCDFOpts(r.g, r.spanner, sources, quantiles, seed, r.solverOptions())
}

func (r *Result) solverOptions() dist.SolverOptions {
	return dist.SolverOptions{Metrics: r.metrics}
}
