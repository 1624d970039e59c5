// Benchmark harness: one testing.B target per reproduced experiment
// (DESIGN.md §2 maps each to the paper's claim), plus one micro-benchmark:
// cluster-merge against Baswana–Sen. The construction, MPC, Dijkstra and
// stretch-verification benchmarks live in their packages.
// Regenerate the experiment tables themselves with `go run ./cmd/experiments`.
package mpcspanner

import (
	"context"
	"testing"

	"mpcspanner/internal/bench"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

// benchCfg keeps benchmark iterations affordable; cmd/experiments runs the
// full sizes recorded in EXPERIMENTS.md.
func benchCfg() bench.Config { return bench.Config{Quick: true, Seed: 2024} }

func runTable(b *testing.B, gen func(bench.Config) bench.Table) {
	b.Helper()
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		tb := gen(cfg)
		if len(tb.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

func BenchmarkT1GeneralTradeoff(b *testing.B)      { runTable(b, bench.T1GeneralTradeoff) }
func BenchmarkT2ClusterMerge(b *testing.B)         { runTable(b, bench.T2ClusterMerge) }
func BenchmarkT3StretchEps(b *testing.B)           { runTable(b, bench.T3StretchEps) }
func BenchmarkT4NearLinear(b *testing.B)           { runTable(b, bench.T4NearLinear) }
func BenchmarkT5SqrtK(b *testing.B)                { runTable(b, bench.T5SqrtK) }
func BenchmarkT6ClusterMergeWeighted(b *testing.B) { runTable(b, bench.T6ClusterMergeWeighted) }
func BenchmarkT7Unweighted(b *testing.B)           { runTable(b, bench.T7Unweighted) }
func BenchmarkT8MPCRounds(b *testing.B)            { runTable(b, bench.T8MPCRounds) }
func BenchmarkT9APSP(b *testing.B)                 { runTable(b, bench.T9APSP) }
func BenchmarkT10CongestedClique(b *testing.B)     { runTable(b, bench.T10CongestedClique) }
func BenchmarkT11PRAMDepth(b *testing.B)           { runTable(b, bench.T11PRAMDepth) }
func BenchmarkT12Baseline(b *testing.B)            { runTable(b, bench.T12Baseline) }
func BenchmarkF1TradeoffCurve(b *testing.B)        { runTable(b, bench.F1TradeoffCurve) }
func BenchmarkF2SizeCurve(b *testing.B)            { runTable(b, bench.F2SizeCurve) }
func BenchmarkF3ApproxCDF(b *testing.B)            { runTable(b, bench.F3ApproxCDF) }
func BenchmarkA1EqualRoundBudget(b *testing.B)     { runTable(b, bench.A1EqualRoundBudget) }
func BenchmarkA2RepetitionPicker(b *testing.B)     { runTable(b, bench.A2RepetitionPicker) }

// --- Micro-benchmarks --------------------------------------------------

func benchGraph(n int) *graph.Graph {
	return graph.GNP(n, 12/float64(n), graph.UniformWeight(1, 100), 7)
}

func BenchmarkClusterMergeVsBaswanaSen(b *testing.B) {
	g := benchGraph(50_000)
	b.Run("cluster-merge/k=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spanner.ClusterMergeCtx(context.Background(), g, 16, spanner.Options{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baswana-sen/k=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := spanner.BaswanaSenCtx(context.Background(), g, 16, spanner.Options{Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
