package oracle

import (
	"context"
	"sync"
	"testing"

	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
)

func benchGraph(tb testing.TB) *graph.Graph {
	tb.Helper()
	return graph.Connectify(graph.GNP(4000, 8/4000.0, graph.UniformWeight(1, 100), 1), 50)
}

// largeOracleGraph is built once per process: generating the 6M-edge
// instance costs far more than filling a row.
var largeOracleGraph = sync.OnceValue(func() *graph.Graph {
	n := 1_000_000
	return graph.Connectify(graph.GNP(n, 12/float64(n), graph.UniformWeight(1, 100), 7), 50)
})

// BenchmarkOracleRowFill is the serving-layer companion to the dist
// package's BenchmarkSSSP, gated by BENCH_large.json (bench-large CI job,
// not the PR gate): every iteration queries a source the cache has never
// seen, so each op is one cold full-row fill through the oracle's
// single-flight + cache machinery on a 1M-vertex sparse graph. Reports
// relaxable arcs per second and peak RSS as custom metrics. The sub-benchmark
// keeps its engine=delta-stepping name so the committed row keeps gating.
func BenchmarkOracleRowFill(b *testing.B) {
	b.Run("n=1M/engine=delta-stepping", func(b *testing.B) {
		g := largeOracleGraph()
		o := New(g, Options{MaxRows: 8})
		mustRow(b, o, 0) // warm the solver scratch pool
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r, err := o.Row(ctx, (1+i*7919)%g.N()); err != nil || len(r) != g.N() {
				b.Fatal("bad row", err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(2*g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		if rss := obs.PeakRSSBytes(); rss > 0 {
			b.ReportMetric(float64(rss), "peak_rss_bytes")
		}
	})
}

// BenchmarkOracleColdVsWarm times the same Zipf batch against a fresh cache
// (every distinct source pays a row fill) and a pre-warmed one (every pair is
// a row lookup). The gap is the serving-layer speedup the §7 oracle regime
// is about.
func BenchmarkOracleColdVsWarm(b *testing.B) {
	g := benchGraph(b)
	pairs := ZipfWorkload(g.N(), 2000, 1.2, 7)

	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			o := New(g, Options{MaxRows: 4096})
			if _, err := o.QueryMany(ctx, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		o := New(g, Options{MaxRows: 4096})
		mustQueryMany(b, o, pairs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.QueryMany(ctx, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryMany races the warm oracle against the pre-PR behavior —
// one dist.Dijkstra per query — on the same Zipf workload. The acceptance
// bar is ≥ 5× for the oracle; TestQueryManyMatchesNaive pins bit-identical
// results.
func BenchmarkQueryMany(b *testing.B) {
	g := benchGraph(b)
	pairs := ZipfWorkload(g.N(), 500, 1.2, 11)

	b.Run("naive-dijkstra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				_ = dist.Dijkstra(g, p.U)[p.V]
			}
		}
	})
	b.Run("oracle-warm", func(b *testing.B) {
		o := New(g, Options{MaxRows: 4096})
		mustQueryMany(b, o, pairs)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := o.QueryMany(ctx, pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestQueryManyMatchesNaive is the bit-identity companion to
// BenchmarkQueryMany: the cached batch path must return exactly what naive
// per-query Dijkstra returns.
func TestQueryManyMatchesNaive(t *testing.T) {
	g := graph.Connectify(graph.GNP(300, 8/300.0, graph.UniformWeight(1, 100), 1), 50)
	pairs := ZipfWorkload(g.N(), 400, 1.2, 11)
	o := New(g, Options{})
	got := mustQueryMany(t, o, pairs)
	for i, p := range pairs {
		want := dist.Dijkstra(g, p.U)[p.V]
		if got[i] != want {
			t.Fatalf("pair %d (%d,%d): oracle %v != naive %v", i, p.U, p.V, got[i], want)
		}
	}
}
