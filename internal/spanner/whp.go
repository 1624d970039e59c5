package spanner

import (
	"context"
	"math"

	"mpcspanner/internal/cluster"
	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/par"
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

// whpConfig holds the two-event criterion constants:
//
//	event 1 (Chernoff): sampled ≤ max(C1·|C|·p, C1·ln n)
//	event 2 (Markov):   new spanner edges ≤ C2·|C|/p
//
// Each run is good with constant probability, so among Θ(log n) runs a good
// one exists w.h.p.; a bad iteration falls back to the fewest-edges run.
type whpConfig struct {
	runs   int
	c1, c2 float64
}

// GeneralWHPCtx runs the general algorithm with the Congested Clique
// high-probability mechanism of Theorem 8.1: every grow iteration simulates
// `runs` independent sampling processes (runs ≤ the word size O(log n), so
// their outcomes travel in a single broadcast word), commits the first run
// satisfying the two-event criterion, and thereby guarantees the
// O(n^{1+1/k}(t+log k)) size bound with high probability rather than in
// expectation. runs ≤ 0 selects ⌈log₂ n⌉ + 1.
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
	return runEngineWHP(ctx, g, k, t, opt.Seed, whpConfig{runs: runs, c1: 4, c2: 4},
		engineConfig{measureRadius: opt.MeasureRadius, workers: opt.Workers, progress: opt.Progress})
}

// runEngineWHP is runEngine with the per-iteration spliced selection.
func runEngineWHP(ctx context.Context, g *graph.Graph, k, t int, seed uint64, wc whpConfig, cfg engineConfig) (*Result, *WHPStats, error) {
	e := newEngine(g, k, t, seed, cfg)
	e.stats.Algorithm = "general-whp"
	whp := &WHPStats{Runs: wc.runs}

	n := float64(g.N())
	if n >= 2 {
		lnN := math.Log(n)
		schedule := Schedule(k, t)
		for _, spec := range schedule {
			if err := core.Check(ctx); err != nil {
				return nil, nil, err
			}
			if e.nAlive == 0 {
				break
			}
			p := math.Pow(n, -spec.Exponent)
			active := float64(len(e.active))

			var chosen *iterPlan
			choice := IterationChoice{Epoch: spec.Epoch, Iter: spec.Iter, Active: len(e.active)}
			for rep := 0; rep < wc.runs; rep++ {
				coin := func(center int32) bool {
					return xrand.CoinAt(p, seed, CoinDomainWHP, uint64(rep),
						uint64(spec.Epoch), uint64(spec.Iter), uint64(center))
				}
				plan := e.planIteration(coin)
				okSample := float64(len(plan.sampled)) <= math.Max(wc.c1*active*p, wc.c1*lnN)
				okEdges := float64(plan.newEdges) <= wc.c2*active/p
				if okSample && okEdges {
					chosen, choice.Rep, choice.Good = plan, rep, true
					break
				}
				if chosen == nil || plan.newEdges < chosen.newEdges {
					chosen, choice.Rep = plan, rep
				}
			}
			choice.Sampled = len(chosen.sampled)
			choice.NewEdges = chosen.newEdges
			if choice.Good {
				whp.GoodCount++
			}
			whp.Choices = append(whp.Choices, choice)

			e.applyIteration(chosen)
			e.stats.Iterations++
			e.emit("grow", spec.Epoch, len(schedule))
			if spec.LastOfEpoch && !cfg.classicBS {
				e.contract()
				e.stats.Epochs++
				e.emit("contract", spec.Epoch, len(schedule))
			}
		}
	}
	if err := core.Check(ctx); err != nil {
		return nil, nil, err
	}
	e.phase2()
	e.emit("phase2", 0, 0)

	ids := sortedUnique(e.spanIDs)
	e.stats.Phase2Edges = len(ids) - e.stats.Phase1Edges
	if cfg.measureRadius {
		e.stats.Radius = e.measureRadius()
	}
	return &Result{EdgeIDs: ids, Stats: e.stats}, whp, nil
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

// newEngine constructs the engine state shared by runEngine and
// runEngineWHP.
func newEngine(g *graph.Graph, k, t int, seed uint64, cfg engineConfig) *engine {
	n := g.N()
	e := &engine{
		g: g, k: k, t: t, seed: seed, cfg: cfg,
		workers:      par.Workers(cfg.workers),
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
