package dist

import (
	"fmt"
	"sort"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/xrand"
)

// Randomness-stream tags for xrand.Split: distinct estimators under the same
// seed draw from independent streams.
const (
	tagEdgeSample = 0x65737472 // "estr"
	tagPairSample = 0x70616972 // "pair"
)

// EdgeStretch measures the stretch of every edge of g in h: the ratio
// d_h(u,v) / w(u,v) over all edges {u,v} ∈ g. Checking every edge is
// equivalent to checking all pairs (the spanner edge condition), which is
// how Verify certifies the paper's bounds. Edges whose endpoints h
// disconnects contribute Inf. h must share g's vertex set.
//
// Each edge needs one distance, so the edge estimators probe h once per edge
// with Solver.DistTo, whose two searches, one from each endpoint, stop once
// they meet — typically two small balls. The full-row estimators
// (PairStretchOpts, StretchCDFOpts) fill whole rows.
func EdgeStretch(g, h *graph.Graph) (StretchReport, error) {
	if err := compatible(g, h); err != nil {
		return StretchReport{}, err
	}
	ids := make([]int, g.M())
	for i := range ids {
		ids[i] = i
	}
	return makeReport(edgeRatios(g, h, ids)), nil
}

// SampledEdgeStretch is EdgeStretch over `samples` edges drawn uniformly
// (with replacement) from g via the stream (seed, "estr"); equal seeds give
// identical reports. If samples meets or exceeds g.M() the check is exact.
func SampledEdgeStretch(g, h *graph.Graph, samples int, seed uint64) (StretchReport, error) {
	if err := compatible(g, h); err != nil {
		return StretchReport{}, err
	}
	if samples < 0 {
		return StretchReport{}, fmt.Errorf("dist: negative sample count %d", samples)
	}
	if samples >= g.M() {
		return EdgeStretch(g, h)
	}
	rng := xrand.Split(seed, tagEdgeSample)
	ids := make([]int, samples)
	for i := range ids {
		ids[i] = rng.Intn(g.M())
	}
	return makeReport(edgeRatios(g, h, ids)), nil
}

// edgeRatios computes d_h(u,v)/w for the given g-edge ids (duplicates
// allowed), ratio i for ids[i]: one Solver.DistTo over h per probe, fanned
// out over the worker pool. Each probe writes only its own slot, so the
// output is independent of scheduling.
func edgeRatios(g, h *graph.Graph, ids []int) []float64 {
	solver := NewSolver(h, SolverOptions{})
	ratios := make([]float64, len(ids))
	parallelFor(len(ids), func(i int) {
		e := g.Edge(ids[i])
		ratios[i] = solver.DistTo(e.U, e.V) / e.W
	})
	return ratios
}

// PairStretchOpts samples `sources` distinct Dijkstra sources from the
// stream (seed, "pair") and measures d_h(s,v)/d_g(s,v) over every pair (s, v)
// with v reachable from s in g — the approximation ratio of the §7/§8 APSP
// oracles. Pairs g connects but h does not contribute Inf. If no sampled
// source can reach any vertex, the zero-value report (Checked = 0) is
// returned. opt configures the per-source full-row fills; the APSP pipeline
// passes its Metrics so the measurers report under the dist_* series. The
// report never depends on opt (the exactness contract).
func PairStretchOpts(g, h *graph.Graph, sources int, seed uint64, opt SolverOptions) (StretchReport, error) {
	ratios, err := pairRatios(g, h, sources, seed, opt)
	if err != nil {
		return StretchReport{}, err
	}
	return makeReport(ratios), nil
}

// StretchCDFOpts returns the empirical quantiles of the PairStretchOpts
// ratio distribution, one value per requested quantile q ∈ [0, 1]
// (0 = minimum, 1 = maximum). The sampling stream is the same as
// PairStretchOpts's, so the quantiles describe exactly the distribution
// behind that report; opt is as there. Unlike PairStretchOpts, an empty
// sample is an error: quantiles of nothing would be silent NaNs.
func StretchCDFOpts(g, h *graph.Graph, sources int, quantiles []float64, seed uint64, opt SolverOptions) ([]float64, error) {
	ratios, err := pairRatios(g, h, sources, seed, opt)
	if err != nil {
		return nil, err
	}
	if len(ratios) == 0 {
		return nil, fmt.Errorf("dist: sampled sources have no reachable pairs")
	}
	sort.Float64s(ratios)
	out := make([]float64, len(quantiles))
	for i, q := range quantiles {
		out[i] = quantile(ratios, q)
	}
	return out, nil
}

// pairRatios draws the source sample and computes all finite-in-g pairwise
// ratios, one full g-row and one full h-row per source. Sources run in
// parallel; each row is one serial fill through a per-graph Solver.
func pairRatios(g, h *graph.Graph, sources int, seed uint64, opt SolverOptions) ([]float64, error) {
	if err := compatible(g, h); err != nil {
		return nil, err
	}
	if sources < 1 {
		return nil, fmt.Errorf("dist: need at least one source, got %d", sources)
	}
	n := g.N()
	if sources > n {
		sources = n
	}
	solverG := NewSolver(g, opt)
	solverH := NewSolver(h, opt)
	perm := xrand.Split(seed, tagPairSample).Perm(n)
	srcs := perm[:sources]
	perSource := make([][]float64, sources)
	parallelFor(sources, func(i int) {
		s := srcs[i]
		// Both rows are read once and discarded, so they fill into pooled
		// scratch rows instead of two fresh n-sized allocations per source.
		sg, sh := acquire(n), acquire(n)
		dg := solverG.RowInto(s, sg.dist)
		dh := solverH.RowInto(s, sh.dist)
		var rs []float64
		for v := range dg {
			if v == s || dg[v] == Inf {
				continue
			}
			rs = append(rs, dh[v]/dg[v])
		}
		perSource[i] = rs
		sg.release()
		sh.release()
	})
	var ratios []float64
	for _, rs := range perSource {
		ratios = append(ratios, rs...)
	}
	return ratios, nil
}

// compatible rejects graphs on different vertex sets: every estimator
// compares distances vertex-by-vertex, which is meaningless otherwise.
func compatible(g, h *graph.Graph) error {
	if g.N() != h.N() {
		return fmt.Errorf("dist: vertex count mismatch %d vs %d", g.N(), h.N())
	}
	return nil
}
