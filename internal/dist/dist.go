// Package dist is the distance-computation and stretch-verification
// subsystem. Every result of the reproduced paper — spanner stretch bounds
// (§3–§5), MPC APSP (§7), Congested Clique APSP (§8) — is stated in terms of
// shortest-path distances, and this package is the single place they are
// computed: single-source shortest paths (delta-stepping, with heap Dijkstra
// as its reference) over the frozen CSR adjacency of internal/graph,
// truncated BFS balls for the Appendix B sparse/dense split, a parallel
// all-pairs solver, and the sampled stretch estimators the verification layer
// and benchmark tables consume.
//
// All sampled estimators draw their randomness through internal/xrand keyed
// by an explicit seed, so equal seeds yield bit-identical reports — the test
// suite and the experiment tables rely on that.
package dist

import (
	"math"
	"sort"
)

// Inf is the distance reported for unreachable vertex pairs. It is the IEEE
// +Inf, so it propagates through ratio arithmetic and comparisons the way
// callers expect (x != Inf, math.IsInf(x, 1)).
var Inf = math.Inf(1)

// StretchReport summarizes a set of measured stretch (or approximation)
// ratios dist_H / dist_G. The zero value is the report of an empty sample.
type StretchReport struct {
	// Checked is the number of edge or vertex pairs measured.
	Checked int
	// Max and Min are the extreme ratios observed; Mean is the average.
	// A pair connected in G but not in H contributes Inf to all three.
	Max, Min, Mean float64
	// P50, P90 and P99 are empirical quantiles of the ratio distribution.
	P50, P90, P99 float64
}

// makeReport builds a StretchReport from raw ratios. It sorts the slice in
// place.
func makeReport(ratios []float64) StretchReport {
	if len(ratios) == 0 {
		return StretchReport{}
	}
	sort.Float64s(ratios)
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	return StretchReport{
		Checked: len(ratios),
		Max:     ratios[len(ratios)-1],
		Min:     ratios[0],
		Mean:    sum / float64(len(ratios)),
		P50:     quantile(ratios, 0.5),
		P90:     quantile(ratios, 0.9),
		P99:     quantile(ratios, 0.99),
	}
}

// quantile returns the empirical q-quantile of a sorted sample using the
// nearest-rank definition (q=0 is the minimum, q=1 the maximum).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
