// Package spanner implements the paper's spanner constructions:
//
//   - GeneralCtx: the §5 trade-off algorithm. Epoch i runs t grow iterations
//     of Baswana–Sen-style clustering on the current quotient graph with
//     sampling probability n^{−(t+1)^{i−1}/k}, then contracts (Step C).
//     It yields stretch O(k^s), s = log(2t+1)/log(t+1), size
//     O(n^{1+1/k}(t+log k)), in O(t·log k/log(t+1)) iterations (Thm 5.15).
//   - ClusterMergeCtx: the §4 algorithm = GeneralCtx with t = 1 (stretch
//     O(k^{log 3}), log k epochs, Thm 4.14).
//   - SqrtKCtx: the §3 algorithm = GeneralCtx with t = ⌈√k⌉ (stretch O(k),
//     O(√k) iterations, Thms 3.1/3.4).
//   - BaswanaSenCtx: the classic [BS07] baseline (stretch 2k−1, k−1
//     iterations, per-vertex Phase 2, no contraction), used as the paper's
//     comparison point and as a subroutine of the unweighted algorithm.
//   - GeneralWHPCtx: GeneralCtx with Theorem 8.1's per-iteration run
//     selection, which makes the size bound hold with high probability.
//   - UnweightedCtx: the Appendix B adaptation of Parter–Yogev (stretch
//     O(k/γ), O(log k) rounds, extra O(n^{1+γ}) memory), for unweighted
//     graphs.
//
// Every weighted family runs one engine loop: Phase 1's grow iterations
// (Steps B1–B6) over the shared Schedule, then Phase 2. The variants differ
// only in the coin set an iteration commits (the Phase 1 coins, or the
// Theorem 8.1 run that passes the two-event criterion) and in the [BS07]
// baseline's uncontracted epoch and per-vertex Phase 2. UnweightedCtx
// composes two [BS07] runs.
//
// All algorithms are deterministic given Options.Seed: every sampling coin is
// the pure function xrand.CoinAt(p, seed, epoch, iteration, centerVertex), so
// the simulated MPC execution (internal/mpc) can replay identical runs.
package spanner

import (
	"context"
	"math"
	"math/bits"

	"mpcspanner/internal/cluster"
	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/par"
	"mpcspanner/internal/xrand"
)

// Options configures a spanner construction.
type Options struct {
	// Seed drives every random choice. Two runs with equal seeds and inputs
	// produce identical spanners.
	Seed uint64

	// Repetitions > 1 runs that many independent instances (derived seeds)
	// and keeps the smallest spanner — the "w.h.p. via O(log n) parallel
	// repetitions" mechanism of Theorem 8.1 / Section 6. Zero means 1.
	Repetitions int

	// Workers sizes the construction's worker pool (internal/par): 0 selects
	// runtime.GOMAXPROCS(0), 1 forces the serial path, larger values pin the
	// pool. Equal seeds yield bit-identical spanners, round counts and
	// stretch reports at every worker count; negative values are rejected
	// with an error.
	Workers int

	// MeasureRadius additionally computes the final cluster-tree radii
	// (hop and weighted), used by the stretch accounting experiments.
	MeasureRadius bool

	// Progress, when non-nil, receives one core.ProgressEvent per engine
	// checkpoint (grow iteration, contraction, phase 2, and one
	// "repetition" event per finished run when Repetitions > 1). Events are
	// emitted synchronously from the construction loop; the callback must
	// not block for long, must not call back into the engine, and must be
	// safe for concurrent use when Repetitions > 1 (repetitions run on the
	// worker pool).
	Progress func(core.ProgressEvent)

	// Metrics, when non-nil, attaches the engine's structural gauges and
	// counters (grow iterations, contractions, supernode/alive-edge levels,
	// per-iteration wall clock). nil runs fully uninstrumented — inert nil
	// handles, no clock reads — so the construction hot path is unchanged.
	Metrics *obs.Registry

	// Tracer, when non-nil, records per-phase spans (B1 coins, grow
	// iterations, removal sweeps, Step C contractions, Phase 2) with
	// durations and cluster counts. Safe for Repetitions > 1: concurrent
	// engines append to the same tracer.
	Tracer *obs.Tracer
}

func (o Options) reps() int {
	if o.Repetitions < 1 {
		return 1
	}
	return o.Repetitions
}

// validate rejects malformed option values with descriptive errors (the
// facade mirrors this check so misconfiguration fails loudly at either
// layer rather than silently misbehaving).
func (o Options) validate() error {
	return par.CheckWorkers("spanner: Options.Workers", o.Workers)
}

// Stats reports the structural costs of a run — the quantities the paper's
// theorems bound.
type Stats struct {
	Algorithm string
	K         int // stretch parameter
	T         int // grow iterations per epoch (General family)

	Epochs     int // number of contraction epochs executed
	Iterations int // total grow iterations = the algorithm's round driver

	Phase1Edges int // spanner edges added during Phase 1
	Phase2Edges int // spanner edges added during Phase 2

	// SupernodeHistory[i] is the supernode count after epoch i+1's
	// contraction (Lemma 5.12's quantity).
	SupernodeHistory []int

	// Probabilities[i] is the per-iteration sampling probability of epoch
	// i+1 (before any final-iteration clamping).
	Probabilities []float64

	// Tree radii of the final clustering (only if Options.MeasureRadius).
	Radius cluster.TreeStats

	// Repetition is the index of the winning run when Repetitions > 1.
	Repetition int
}

// Result is a constructed spanner: the selected edge identifiers (sorted,
// unique, indexes into the input graph's edge list) plus run statistics.
type Result struct {
	EdgeIDs []int
	Stats   Stats
}

// Size returns the number of spanner edges.
func (r *Result) Size() int { return len(r.EdgeIDs) }

// Spanner materializes the spanner as a graph on the same vertex set.
func (r *Result) Spanner(g *graph.Graph) *graph.Graph { return g.Subgraph(r.EdgeIDs) }

// GeneralCtx runs the §5 trade-off algorithm with parameters k ≥ 1 (stretch
// exponent base) and t ≥ 1 (grow iterations per epoch). Larger t lowers the
// stretch toward 2k−1 at the cost of more iterations; see StretchBound and
// IterationBound for the theoretical envelope.
//
// The engine checkpoints ctx at every grow iteration and contraction and
// returns core.Canceled(ctx.Err()) — matching errors.Is against both
// core.ErrCanceled and ctx.Err() — at the first checkpoint after
// cancellation, with all pool goroutines joined. Checkpoints never change
// what is computed: uncanceled runs are bit-identical at every worker count.
func GeneralCtx(ctx context.Context, g *graph.Graph, k, t int, opt Options) (*Result, error) {
	if err := validateKT(k, t); err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return bestOf(ctx, g, k, t, engineConfig{Options: opt})
}

// ClusterMergeCtx runs the §4 cluster-cluster merging algorithm (t = 1):
// log k epochs, stretch O(k^{log 3}), size O(n^{1+1/k}·log k). Cancellation
// follows GeneralCtx.
func ClusterMergeCtx(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	r, err := GeneralCtx(ctx, g, k, 1, opt)
	if err != nil {
		return nil, err
	}
	r.Stats.Algorithm = "cluster-merge"
	return r, nil
}

// SqrtKCtx runs the §3 two-phase algorithm (t = ⌈√k⌉): O(√k) iterations,
// stretch O(k), size O(√k·n^{1+1/k}). Cancellation follows GeneralCtx.
func SqrtKCtx(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	t := int(math.Ceil(math.Sqrt(float64(k))))
	if t < 1 {
		t = 1
	}
	r, err := GeneralCtx(ctx, g, k, t, opt)
	if err != nil {
		return nil, err
	}
	r.Stats.Algorithm = "sqrt-k"
	return r, nil
}

// BaswanaSenCtx runs the classic [BS07] construction: k−1 grow iterations
// with probability n^{−1/k}, no contraction, and a per-vertex Phase 2. Its
// stretch is 2k−1 and its expected size O(k·n^{1+1/k}); it is the paper's
// baseline. Cancellation follows GeneralCtx.
func BaswanaSenCtx(ctx context.Context, g *graph.Graph, k int, opt Options) (*Result, error) {
	if err := validateKT(k, 1); err != nil {
		return nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return bestOf(ctx, g, k, k, engineConfig{Options: opt, classicBS: true})
}

// StretchBound returns the paper's stretch guarantee for General(k, t):
// 2·k^s with s = log(2t+1)/log(t+1) (Theorem 5.11 / Corollary 5.10). Note
// that the classic BaswanaSen variant has the stronger guarantee 2k−1 — the
// general algorithm's contractions (Step C) trade that for fewer iterations
// even when t ≥ k−1.
func StretchBound(k, t int) float64 {
	if k <= 1 {
		return 1
	}
	s := math.Log(float64(2*t+1)) / math.Log(float64(t+1))
	return 2 * math.Pow(float64(k), s)
}

// IterationBound returns the paper's iteration guarantee for General(k, t):
// t·⌈log k/log(t+1)⌉ (Theorem 5.15), i.e. grow iterations across all epochs.
func IterationBound(k, t int) int {
	if k <= 1 {
		return 0
	}
	if t >= k-1 {
		return k - 1
	}
	l := int(math.Ceil(math.Log(float64(k)) / math.Log(float64(t+1))))
	return t * l
}

// DefaultT is the default epoch length for stretch parameter k: the paper's
// t = ⌈log₂ k⌉ sweet spot (stretch k^{1+o(1)} in O(log² k / log log k)
// iterations), at least 1.
func DefaultT(k int) int {
	if k <= 2 {
		return 1
	}
	return bits.Len(uint(k - 1))
}

// APSPParams returns the parameters Corollaries 1.4 and 1.5 choose for an
// n-vertex graph: k = ⌈log₂ n⌉ and t = DefaultT(k) = max(1, ⌈log₂ log₂ n⌉),
// which yield stretch O(log^{1+o(1)} n) in O(log² log n) rounds. Graphs with
// fewer than 4 vertices get k = 2, t = 1.
func APSPParams(n int) (k, t int) {
	if n < 4 {
		return 2, 1
	}
	k = bits.Len(uint(n - 1))
	return k, DefaultT(k)
}

func validateKT(k, t int) error {
	if k < 1 {
		return &core.OptionError{Field: "spanner: k", Value: k,
			Reason: "stretch parameter must be >= 1"}
	}
	if t < 1 {
		return &core.OptionError{Field: "spanner: t", Value: t,
			Reason: "epoch length must be >= 1"}
	}
	return nil
}

// bestOf runs the engine cfg.Repetitions times, each with cfg's Options
// under its own derived seed, and keeps the smallest spanner (ties: earliest
// repetition). Repetitions execute concurrently on the option's worker pool
// — each draws its seed from its own per-repetition stream (the per-shard
// pattern of internal/par), and the winner is reduced order-independently
// over the index-addressed results, so the outcome is identical at every
// worker count. Cancellation checkpoints between repetitions
// (par.ForCoarseCtx) and inside each run (the engine's per-iteration
// checks); on cancellation every in-flight repetition drains at its own next
// checkpoint before bestOf returns.
func bestOf(ctx context.Context, g *graph.Graph, k, t int, cfg engineConfig) (*Result, error) {
	opt := cfg.Options
	reps := opt.reps()
	if reps == 1 {
		return runEngine(ctx, g, k, t, cfg)
	}
	// Per-repetition seeds keep the historical "reps"-tagged derivation so
	// Repetitions > 1 runs reproduce pre-parallelization outputs exactly;
	// par.Streams packages the same per-shard-stream derivation under its
	// own tag for new call sites.
	results := make([]*Result, reps)
	err := par.ForCoarseCtx(ctx, par.Workers(opt.Workers), reps, func(rep int) error {
		run := cfg
		run.Seed = xrand.Split(opt.Seed, 0x72657073, uint64(rep)).Uint64() // "reps"
		r, err := runEngine(ctx, g, k, t, run)
		if err != nil {
			return err
		}
		r.Stats.Repetition = rep
		if opt.Progress != nil {
			opt.Progress(core.ProgressEvent{Stage: "repetition", Algorithm: r.Stats.Algorithm,
				Iteration: rep + 1, TotalIterations: reps, SpannerEdges: len(r.EdgeIDs)})
		}
		results[rep] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	best := results[0]
	for _, r := range results[1:] {
		if len(r.EdgeIDs) < len(best.EdgeIDs) {
			best = r
		}
	}
	return best, nil
}

// engineConfig is one engine run: the caller's Options, whose Seed is the
// run's own (bestOf derives one per repetition), plus the variant. Every
// variant runs the same Phase 1 grow loop; they differ in which coin set an
// iteration commits, whether epochs contract, and Phase 2:
//
//   - general (the zero variant): the Phase 1 coin set, a Step C
//     contraction after each epoch, and a Phase 2 that keeps one minimum
//     edge per remaining supernode pair;
//   - classicBS: [BS07] exactly — a single epoch of k−1 iterations at
//     probability n^{−1/k}, no contraction, per-vertex Phase 2;
//   - whp: Theorem 8.1 — planWHP plans each run's coin set, commits one and
//     records the choice in *whp; contraction and Phase 2 as general.
type engineConfig struct {
	Options
	classicBS bool
	whp       *WHPStats
}
