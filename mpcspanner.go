// Package mpcspanner is the public facade of this repository: a Go
// implementation of "Massively Parallel Algorithms for Distance
// Approximation and Spanners" (Biswas, Dory, Ghaffari, Mitrović, Nazari —
// SPAA 2021).
//
// The v1 surface is two nouns and one verb set. Build constructs a spanner
// with any of the paper's algorithm families under a context, with
// functional options, progress reporting, and typed errors:
//
//	g := mpcspanner.GNP(10_000, 0.001, mpcspanner.UniformWeight(1, 100), 42)
//	res, err := mpcspanner.Build(ctx, g, mpcspanner.WithK(8), mpcspanner.WithSeed(1))
//	// res.EdgeIDs is the spanner; res.Stats carries iterations/size/radius.
//
// Serve wraps the §7 distance-approximation pipeline (or any frozen graph)
// in a cached, concurrency-safe serving Session:
//
//	s, err := mpcspanner.Serve(ctx, g, mpcspanner.WithSeed(1))
//	d, err := s.Query(ctx, 0, 99)
//
// Every error classifies through errors.Is against ErrInvalidOption or
// ErrCanceled (the latter also matching ctx.Err()); see errors.go. Open loads
// a saved build artifact, and ApproxAPSPCongestedCliqueCtx runs the
// Corollary 1.5 pipeline. See DESIGN.md §8 for the cancellation model and the
// option defaults.
package mpcspanner

import (
	"context"

	"mpcspanner/internal/apsp"
	"mpcspanner/internal/cclique"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/mpc"
	"mpcspanner/internal/oracle"
	"mpcspanner/internal/spanner"
)

// Graph, Edge and the workload generators are re-exported from the graph
// substrate so applications only import this package.
type (
	// Graph is a weighted undirected graph with frozen CSR adjacency.
	Graph = graph.Graph
	// Edge is an undirected weighted edge.
	Edge = graph.Edge
	// WeightFn draws edge weights inside generators.
	WeightFn = graph.WeightFn
)

// NewGraph builds a graph on n vertices from edges. Every edge must have
// both endpoints in [0, n) and distinct, and a finite positive weight, and
// the weights must have a finite sum, so no distance can overflow into the
// +Inf that means "unreachable". Any other input is rejected with an
// *OptionError, which matches ErrInvalidOption.
func NewGraph(n int, edges []Edge) (*Graph, error) { return graph.New(n, edges) }

// Synthetic workload generators, re-exported from internal/graph. Each takes
// a WeightFn and an explicit seed; equal seeds give identical graphs. A
// WeightFn whose draws leave NewGraph's weight domain (their sum overflows
// float64, say) makes a generator, or Connectify, panic with NewGraph's
// *OptionError.
var (
	// GNP is the Erdős–Rényi G(n, p) random graph.
	GNP = graph.GNP
	// GNM is the uniform random graph with exactly m edges.
	GNM = graph.GNM
	// Grid is the 2-D lattice (road-network-like workloads).
	Grid = graph.Grid
	// Torus is the wrap-around 2-D lattice.
	Torus = graph.Torus
	// Cycle is the n-cycle.
	Cycle = graph.Cycle
	// Path is the n-vertex path.
	Path = graph.Path
	// Star is the n-vertex star.
	Star = graph.Star
	// Complete is the clique K_n.
	Complete = graph.Complete
	// RandomTree is a uniform random spanning tree on n vertices.
	RandomTree = graph.RandomTree
	// PreferentialAttachment is the Barabási–Albert scale-free generator
	// (social-network-like degree skew).
	PreferentialAttachment = graph.PreferentialAttachment
	// RandomGeometric connects points of the unit square within a radius.
	RandomGeometric = graph.RandomGeometric
	// Connectify bridges a disconnected graph's components so every
	// distance (and hence every stretch ratio) is finite.
	Connectify = graph.Connectify
	// UnitWeight assigns weight 1 to every edge.
	UnitWeight = graph.UnitWeight
	// UniformWeight draws weights uniformly from [lo, hi).
	UniformWeight = graph.UniformWeight
	// ExpWeight draws exponentially distributed weights.
	ExpWeight = graph.ExpWeight
	// PowerWeight draws heavy-tailed power-law weights.
	PowerWeight = graph.PowerWeight
)

// Algorithm selects a spanner construction family for Build.
type Algorithm string

const (
	// AlgoGeneral is the §5 trade-off algorithm parameterized by T.
	AlgoGeneral Algorithm = "general"
	// AlgoClusterMerge is the §4 algorithm (T = 1): fastest, stretch O(k^{log 3}).
	AlgoClusterMerge Algorithm = "cluster-merge"
	// AlgoSqrtK is the §3 algorithm (T = ⌈√k⌉): stretch O(k) in O(√k) rounds.
	AlgoSqrtK Algorithm = "sqrt-k"
	// AlgoBaswanaSen is the classic [BS07] baseline: stretch 2k−1 in k−1 rounds.
	AlgoBaswanaSen Algorithm = "baswana-sen"
	// AlgoUnweighted is the Appendix B construction for unit-weight graphs:
	// stretch O(K/Gamma) in O(log K) rounds. BuildResult.Unweighted carries
	// its statistics.
	AlgoUnweighted Algorithm = "unweighted"
	// AlgoMPC executes the general algorithm on the simulated
	// sublinear-memory MPC cluster (Theorem 1.1 / §6); the spanner is
	// bit-identical to AlgoGeneral under the same seed and
	// BuildResult.MPC carries the round/memory bill.
	AlgoMPC Algorithm = "mpc"
	// AlgoCongestedClique runs Theorem 8.1 (w.h.p. size via per-iteration
	// parallel-run selection); BuildResult.CC carries the clique round bill
	// and selection statistics.
	AlgoCongestedClique Algorithm = "congested-clique"
)

// SpannerStats reports the structural costs of an engine-family build — the
// quantities the paper's theorems bound.
type SpannerStats = spanner.Stats

// UnweightedStats reports the Appendix B construction's structural
// quantities.
type UnweightedStats = spanner.UnweightedStats

// StretchBound returns the certified stretch of General(k, t): 2k^s with
// s = log(2t+1)/log(t+1).
func StretchBound(k, t int) float64 { return spanner.StretchBound(k, t) }

// IterationBound returns the iteration guarantee of General(k, t).
func IterationBound(k, t int) int { return spanner.IterationBound(k, t) }

// MPCResult is the simulated-cluster cost profile of an AlgoMPC build
// (rounds, memory, sorts, spill traffic), carried on BuildResult.MPC.
type MPCResult = mpc.Result

// APSPResult is a completed Corollary 1.4 run: an O(log^{1+o(1)} n)-approximate
// APSP oracle built in poly(log log n) simulated MPC rounds. Session.APSP
// returns the one behind a Serve session.
type APSPResult = apsp.Result

// The distance-oracle serving layer (internal/oracle) behind Session: the
// §7 regime where the spanner is built once and then serves many queries
// locally.
type (
	// OracleStats is a snapshot of a Session's cache counters.
	OracleStats = oracle.Stats
	// Pair is one (source, target) query of Session.QueryMany.
	Pair = oracle.Pair
)

// CCSpannerResult and CCAPSPResult expose the Congested Clique layer (§8).
type (
	// CCSpannerResult is a Theorem 8.1 construction, carried on
	// BuildResult.CC.
	CCSpannerResult = cclique.SpannerResult
	// CCAPSPResult is a Corollary 1.5 run.
	CCAPSPResult = cclique.APSPResult
)

// ApproxAPSPCongestedCliqueCtx runs Corollary 1.5, the first sublogarithmic
// weighted-APSP approximation in the Congested Clique, under ctx: the WHP
// spanner build checkpoints ctx per grow iteration. It accepts the shared
// functional options WithSeed, WithWorkers and WithProgress; the algorithm
// parameters are fixed by the corollary (k = ⌈log₂ n⌉, t = ⌈log₂ log₂ n⌉),
// so the structural options are rejected like every other foreign option.
func ApproxAPSPCongestedCliqueCtx(ctx context.Context, g *Graph, opts ...Option) (*CCAPSPResult, error) {
	cfg, err := newConfig("ApproxAPSPCongestedCliqueCtx", cliqueAPSPForeign, opts)
	if err != nil {
		return nil, err
	}
	return cclique.ApproxAPSPCtx(ctx, g, spanner.Options{
		Seed: cfg.seed, Workers: cfg.workers, Progress: cfg.progress,
	})
}
