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

	"mpcspanner/internal/core"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/mpc"
	"mpcspanner/internal/obs"
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

	// Workers sizes the real goroutine pool behind the simulated build (par
	// conventions: 0 = GOMAXPROCS, 1 = serial). Results are bit-identical at
	// every worker count; negative values are rejected with a descriptive
	// error.
	Workers int

	// Progress, when non-nil, receives the build's checkpoint events (the
	// MPC driver's "mpc-*" stages plus one final "collect" event). Same
	// contract as mpc.Options.Progress.
	Progress func(core.ProgressEvent)

	// Metrics, when non-nil, instruments the pipeline on one registry: the
	// simulated build (mpc_* series) and the delta-stepping row fills of
	// Measure/MeasureCDF (dist_* series). nil runs uninstrumented.
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
	metrics *obs.Registry // carried into the measurers (may be nil)
}

// ApproxCtx runs the Section 7 pipeline under a context: the underlying MPC
// build checkpoints ctx once per simulated grow iteration and one more
// checkpoint precedes the collection step; a canceled context yields
// core.Canceled(ctx.Err()), matching errors.Is against both
// core.ErrCanceled and ctx.Err(). Uncanceled runs are bit-identical at every
// worker count.
func ApproxCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if g.N() < 2 {
		return nil, &core.OptionError{Field: "apsp: graph", Value: g.N(),
			Reason: "need at least two vertices"}
	}
	if err := par.CheckWorkers("apsp: Options.Workers", opt.Workers); err != nil {
		return nil, err
	}
	gamma := opt.Gamma
	if gamma == 0 {
		gamma = 0.5
	}
	k, t := spanner.APSPParams(g.N())
	if opt.T > 0 {
		t = opt.T
	}

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
