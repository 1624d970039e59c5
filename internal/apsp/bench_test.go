package apsp

import (
	"context"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/oracle"
)

// BenchmarkMatrix documents the cost Matrix's doc comment warns about: Θ(n²)
// float64s allocated and n full Dijkstra runs per call, regardless of how
// few entries the caller reads. Compare BenchmarkOracleSparseQueries, which
// touches the same result through the serving layer and pays only for the
// rows actually queried.
func BenchmarkMatrix(b *testing.B) {
	res := benchResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Matrix()
	}
}

// BenchmarkOracleSparseQueries is the sparse-pattern counterpart: 64 point
// queries over 8 hot sources via the cached oracle.
func BenchmarkOracleSparseQueries(b *testing.B) {
	res := benchResult(b)
	var pairs []oracle.Pair
	for i := 0; i < 64; i++ {
		pairs = append(pairs, oracle.Pair{U: i % 8, V: (i * 37) % res.Spanner().N()})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = res.Oracle().QueryMany(pairs)
	}
}

func benchResult(b *testing.B) *Result {
	b.Helper()
	g := graph.Connectify(graph.GNP(1000, 0.01, graph.UniformWeight(1, 20), 1), 10)
	res, err := ApproxCtx(context.Background(), g, Options{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	return res
}
