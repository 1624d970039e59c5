package spanner

import (
	"context"
	"math"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/xrand"
)

// CoinDomainWHP tags the per-run sampling coins of the Theorem 8.1
// parallel-repetition mechanism (keyed additionally by the run index).
const CoinDomainWHP = 0x77687 // "wh"

// IterationChoice records which of the parallel runs an iteration committed.
type IterationChoice struct {
	Epoch, Iter int
	Rep         int  // chosen run index
	Good        bool // chosen via the two-event criterion (vs. fallback)

	Active   int // live clusters before the iteration
	Sampled  int // clusters the chosen run sampled
	NewEdges int // spanner edges the chosen run added
}

// WHPStats reports the Theorem 8.1 selection behaviour.
type WHPStats struct {
	Runs      int // parallel runs simulated per iteration
	GoodCount int // iterations settled by the two-event criterion
	Choices   []IterationChoice
}

// The two-event criterion's constants:
//
//	event 1 (Chernoff): sampled ≤ max(whpC1·|C|·p, whpC1·ln n)
//	event 2 (Markov):   fresh spanner edges ≤ whpC2·|C|/p
//
// Each run is good with constant probability, so among Θ(log n) runs a good
// one exists w.h.p.; a bad iteration falls back to the fewest-edges run.
const whpC1, whpC2 = 4, 4

// GeneralWHPCtx runs the general algorithm with the Congested Clique
// high-probability mechanism of Theorem 8.1: every grow iteration simulates
// `runs` independent sampling processes (runs ≤ the word size O(log n), so
// their outcomes travel in a single broadcast word), commits the first run
// satisfying the two-event criterion, and thereby guarantees the
// O(n^{1+1/k}(t+log k)) size bound with high probability rather than in
// expectation. runs ≤ 0 selects ⌈log₂ n⌉ + 1. The run choice is the only
// difference from GeneralCtx: the grow loop, Phase 2 and the Options
// (Progress, Metrics, Tracer, MeasureRadius) are the engine's own;
// Repetitions is ignored.
//
// ctx is checkpointed once per grow iteration (before the parallel sampling
// runs are planned) and the function returns core.Canceled(ctx.Err()) at the
// first checkpoint after cancellation. Checkpoints never change what is
// computed.
func GeneralWHPCtx(ctx context.Context, g *graph.Graph, k, t, runs int, opt Options) (*Result, *WHPStats, error) {
	if err := validateKT(k, t); err != nil {
		return nil, nil, err
	}
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	if runs <= 0 {
		runs = int(math.Ceil(math.Log2(float64(g.N()+2)))) + 1
	}
	whp := &WHPStats{Runs: runs}
	r, err := runEngine(ctx, g, k, t, engineConfig{Options: opt, whp: whp})
	if err != nil {
		return nil, nil, err
	}
	return r, whp, nil
}

// planWHP is the Theorem 8.1 chooser: it plans the iteration under each
// run's coin set, commits the first plan meeting the two-event criterion,
// else the run with the fewest fresh edges, and records the choice.
func (e *engine) planWHP(p float64, spec IterationSpec) *iterPlan {
	n := float64(e.g.N())
	active := float64(len(e.active))
	var chosen *iterPlan
	chosenFresh := 0
	choice := IterationChoice{Epoch: spec.Epoch, Iter: spec.Iter, Active: len(e.active)}
	for rep := 0; rep < e.cfg.whp.Runs; rep++ {
		coins := xrand.NewCoins(p, e.cfg.Seed, CoinDomainWHP, uint64(rep), uint64(spec.Epoch), uint64(spec.Iter))
		plan := e.planIteration(func(center int32) bool { return coins.At(uint64(center)) })
		fresh := e.freshEdges(plan)
		okSample := float64(len(plan.sampled)) <= math.Max(whpC1*active*p, whpC1*math.Log(n))
		okEdges := float64(fresh) <= whpC2*active/p
		if okSample && okEdges {
			chosen, chosenFresh, choice.Rep, choice.Good = plan, fresh, rep, true
			break
		}
		if chosen == nil || fresh < chosenFresh {
			chosen, chosenFresh, choice.Rep = plan, fresh, rep
		}
	}
	choice.Sampled = len(chosen.sampled)
	choice.NewEdges = chosenFresh
	if choice.Good {
		e.cfg.whp.GoodCount++
	}
	e.cfg.whp.Choices = append(e.cfg.whp.Choices, choice)
	return chosen
}

// freshEdges counts a plan's distinct additions not already in the spanner
// (the same minimum edge can be chosen from both endpoints).
func (e *engine) freshEdges(plan *iterPlan) int {
	if e.fresh == nil {
		e.fresh = make([]bool, len(e.inSpanner))
	}
	fresh := 0
	for _, orig := range plan.adds {
		if !e.inSpanner[orig] && !e.fresh[orig] {
			e.fresh[orig] = true
			fresh++
		}
	}
	for _, orig := range plan.adds {
		e.fresh[orig] = false
	}
	return fresh
}

// SizeBoundWHP returns the explicit high-probability size budget certified
// by the two-event criterion: summing C2·|C_j|/p_j over the schedule is
// O(n^{1+1/k}·(t+log k)); we report the closed-form envelope
// C2·(iterations+1)·n^{1+1/k} plus the Phase 2 remainder n^{2/k}·(guarded).
func SizeBoundWHP(n, k, t int) float64 {
	if n < 2 {
		return 1
	}
	iters := len(Schedule(k, t))
	return 4*float64(iters+1)*math.Pow(float64(n), 1+1/float64(k)) +
		math.Pow(float64(n), 2/float64(k))
}
