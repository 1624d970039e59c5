package cclique

import (
	"context"

	"mpcspanner/internal/core"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

// Per-iteration round constants of the semi-MPC execution (Theorem 8.1):
// one round carries the O(log n)-bit sampling-outcome word of all parallel
// runs; three rounds realize the Lemma 6.1 find-minimum/merge subroutines,
// which collapse to O(1) in Θ(n) memory; one round gathers per-run counts to
// the run-responsible nodes and announces the chosen run.
const (
	roundsSampleWord  = 1
	roundsSubroutines = 3
	roundsSelection   = 1
	roundsPerIter     = roundsSampleWord + roundsSubroutines + roundsSelection
	roundsPerContract = 1
)

// SpannerResult is a Congested Clique spanner construction: the spanner
// plus the clique-level round bill.
type SpannerResult struct {
	EdgeIDs []int
	Rounds  int
	Stats   spanner.Stats
	WHP     *spanner.WHPStats
}

// BuildSpannerCtx runs Theorem 8.1: the general algorithm in the semi-MPC
// view of the clique, with ⌈log₂ n⌉+1 parallel sampling runs per iteration
// and the two-event run selection, so the O(n^{1+1/k}(t+log k)) size bound
// holds w.h.p. at only O(1) extra rounds per iteration. The options are
// the engine's own (spanner.GeneralWHPCtx): opt.Seed drives every coin,
// the per-node work runs on a pool of opt.Workers (par conventions:
// 0 = GOMAXPROCS, 1 = serial; negatives are rejected), and Progress,
// Metrics and Tracer observe the grow loop as they do for GeneralCtx. The
// spanner, round bill and WHP selection are bit-identical at every worker
// count. The WHP engine checkpoints ctx once per grow iteration and the
// call returns core.Canceled(ctx.Err()) at the first checkpoint after
// cancellation.
func BuildSpannerCtx(ctx context.Context, g *graph.Graph, k, t int, opt spanner.Options) (*SpannerResult, error) {
	if g.N() < 1 {
		return nil, &core.OptionError{Field: "cclique: graph", Value: g.N(),
			Reason: "need at least one vertex"}
	}
	c, err := New(g.N())
	if err != nil {
		return nil, err
	}
	res, whp, err := spanner.GeneralWHPCtx(ctx, g, k, t, 0, opt)
	if err != nil {
		return nil, err
	}
	c.ChargeRounds(res.Stats.Iterations * roundsPerIter)
	c.ChargeRounds(res.Stats.Epochs * roundsPerContract)
	return &SpannerResult{
		EdgeIDs: res.EdgeIDs,
		Rounds:  c.Rounds(),
		Stats:   res.Stats,
		WHP:     whp,
	}, nil
}

// RoundBound returns the Theorem 8.1 round budget O(t·log k / log(t+1)) with
// this implementation's explicit constants.
func RoundBound(k, t int) int {
	specs := spanner.Schedule(k, t)
	epochs := 0
	if len(specs) > 0 {
		epochs = specs[len(specs)-1].Epoch
	}
	return len(specs)*roundsPerIter + epochs*roundsPerContract
}

// APSPResult is a Corollary 1.5 run: after the spanner is built and
// collected, every node holds the whole spanner and answers any distance
// query locally with the certified approximation factor.
type APSPResult struct {
	SpannerEdgeIDs   []int
	SpannerRounds    int
	CollectionRounds int
	Rounds           int // total
	K, T             int
	Bound            float64 // certified stretch O(log^{1+o(1)} n)

	g       *graph.Graph
	spanner *graph.Graph
}

// ApproxAPSPCtx runs Corollary 1.5 end to end: BuildSpannerCtx with
// k = ⌈log₂ n⌉, t = ⌈log₂ log₂ n⌉, then a Lenzen-routed broadcast of the
// (near-linear) spanner so that every node can answer distance queries
// locally. Cancellation follows BuildSpannerCtx; the collection step
// follows one final checkpoint after the build.
func ApproxAPSPCtx(ctx context.Context, g *graph.Graph, opt spanner.Options) (*APSPResult, error) {
	k, t := spanner.APSPParams(g.N())
	sp, err := BuildSpannerCtx(ctx, g, k, t, opt)
	if err != nil {
		return nil, err
	}
	if err := core.Check(ctx); err != nil {
		return nil, err
	}
	c, err := New(g.N())
	if err != nil {
		return nil, err
	}
	collectRounds := c.BroadcastVolume(len(sp.EdgeIDs))
	return &APSPResult{
		SpannerEdgeIDs:   sp.EdgeIDs,
		SpannerRounds:    sp.Rounds,
		CollectionRounds: collectRounds,
		Rounds:           sp.Rounds + collectRounds,
		K:                k,
		T:                t,
		Bound:            spanner.StretchBound(k, t),
		g:                g,
		spanner:          g.Subgraph(sp.EdgeIDs),
	}, nil
}

// Spanner returns the collected spanner subgraph.
func (r *APSPResult) Spanner() *graph.Graph { return r.spanner }

// MeasureApproximation samples the pairwise approximation quality
// dist_spanner / dist_G against the certified bound.
func (r *APSPResult) MeasureApproximation(sources int, seed uint64) (dist.StretchReport, error) {
	return dist.PairStretchOpts(r.g, r.spanner, sources, seed, dist.SolverOptions{})
}
