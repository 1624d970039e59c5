package dist

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/xrand"
)

func benchGraph(n int) *graph.Graph {
	return graph.Connectify(graph.GNP(n, 12/float64(n), graph.UniformWeight(1, 100), 7), 50)
}

// largeGraphs memoizes the construction-scale graphs across sub-benchmarks:
// generating a 6M-edge GNP instance costs seconds, measuring a row costs
// milliseconds, and every engine variant must see the identical graph.
var largeGraphs sync.Map

func largeBenchGraph(n int) *graph.Graph {
	if g, ok := largeGraphs.Load(n); ok {
		return g.(*graph.Graph)
	}
	g := benchGraph(n)
	largeGraphs.Store(n, g)
	return g
}

// BenchmarkSSSP is the large-n single-source tier gated by BENCH_large.json
// (bench-large CI job, not the 3x-count PR gate): heap Dijkstra vs
// delta-stepping full-row fills on a sparse synthetic family at construction
// scale, reporting relaxable arcs per second (2m arcs per row) and peak RSS
// as custom metrics. The acceptance bar pinned by the committed baseline:
// delta-stepping ≥ 2× the heap's edges/s at n=1M.
func BenchmarkSSSP(b *testing.B) {
	for _, size := range []struct {
		label string
		n     int
	}{{"100k", 100_000}, {"1M", 1_000_000}} {
		for _, engine := range []Engine{EngineHeap, EngineDelta} {
			b.Run(fmt.Sprintf("n=%s/engine=%s", size.label, engine), func(b *testing.B) {
				g := largeBenchGraph(size.n)
				s := NewSolver(g, SolverOptions{Engine: engine})
				row := make([]float64, g.N())
				s.RowInto(0, row) // warm the scratch pool
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if d := s.RowInto((i*7919)%g.N(), row); len(d) != g.N() {
						b.Fatal("bad result")
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(2*g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
				if rss := obs.PeakRSSBytes(); rss > 0 {
					b.ReportMetric(float64(rss), "peak_rss_bytes")
				}
			})
		}
	}
}

// BenchmarkDistsToPoint times the oracle's point fill, a DistTo. One op
// answers a fixed list of 256 seeded uniform pairs. The graphs span
// the two-sided search's range: a spanner-like subgraph of benchGraph(40k),
// an expander on which two half-balls hold a small fraction of one ball, and
// a 200×200 grid, where they save the least. relaxations is the per-op count
// of dist_delta_relaxations_total, read from a separate instrumented solver
// over the same pairs, so the timed solver stays uninstrumented; the kernel
// is serial and picks sides by arcs scanned, not by a clock, so the count is
// exact.
func BenchmarkDistsToPoint(b *testing.B) {
	big := benchGraph(40_000)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"graph=spanner-like-40k", big.Subgraph(spannerLikeSubset(big))},
		{"graph=grid-200x200", graph.Grid(200, 200, graph.UniformWeight(1, 100), 7)},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := xrand.Split(7, 0x706f696e74) // "point"
			src, dst := make([]int, 256), make([]int, 256)
			for i := range src {
				src[i], dst[i] = r.Intn(c.g.N()), r.Intn(c.g.N())
			}
			pass := func(s *Solver) {
				for i, v := range src {
					s.DistTo(v, dst[i])
				}
			}
			s := NewSolver(c.g, SolverOptions{})
			pass(s) // warm the scratch pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass(s)
			}
			b.StopTimer()
			reg := obs.NewRegistry()
			pass(NewSolver(c.g, SolverOptions{Metrics: reg}))
			b.ReportMetric(float64(reg.Counter("dist_delta_relaxations_total").Value()), "relaxations")
		})
	}
}

func BenchmarkDijkstra(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		g := benchGraph(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := Dijkstra(g, i%g.N()); len(d) != g.N() {
					b.Fatal("bad result")
				}
			}
		})
	}
}

// BenchmarkDijkstraWarm is the pooled-scratch steady state the acceptance
// criteria pin: the caller reuses its row and the run draws its heap from
// the per-size pool, so allocs/op must report ~0.
func BenchmarkDijkstraWarm(b *testing.B) {
	g := benchGraph(10_000)
	buf := make([]float64, g.N())
	DijkstraInto(g, 0, buf) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := DijkstraInto(g, i%g.N(), buf); len(d) != g.N() {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkAPSPSerial is the single-threaded baseline for the speedup
// tracked by BenchmarkAPSPParallel: compare ns/op between the two.
func BenchmarkAPSPSerial(b *testing.B) {
	g := benchGraph(2_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m := apspWorkers(g, 1); len(m) != g.N() {
			b.Fatal("bad result")
		}
	}
}

// BenchmarkAPSPParallel fans the same sources out over worker pools of
// increasing size up to NumCPU. On a ≥4-core machine the NumCPU variant
// should run ≥2× faster than BenchmarkAPSPSerial.
func BenchmarkAPSPParallel(b *testing.B) {
	g := benchGraph(2_000)
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if m := apspWorkers(g, workers); len(m) != g.N() {
					b.Fatal("bad result")
				}
			}
		})
	}
}

func benchWorkerCounts() []int {
	counts := []int{2, 4}
	if nc := runtime.NumCPU(); nc > 4 {
		counts = append(counts, nc)
	}
	return counts
}

func BenchmarkSampledEdgeStretch(b *testing.B) {
	g := benchGraph(20_000)
	h := g.Subgraph(spannerLikeSubset(g))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SampledEdgeStretch(g, h, 500, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEdgeStretchFull times the exact edge check, one DistTo per edge
// of g over a spanner-like subgraph h. Beside the expander-like bench graph it
// runs a 100×100 grid, where the two half-radius balls of a probe hold most
// of one ball, so a probe saves least there.
func BenchmarkEdgeStretchFull(b *testing.B) {
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"graph=spanner-like-5k", benchGraph(5_000)},
		{"graph=grid-100x100", graph.Grid(100, 100, graph.UniformWeight(1, 100), 7)},
	} {
		b.Run(c.name, func(b *testing.B) {
			h := c.g.Subgraph(spannerLikeSubset(c.g))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EdgeStretch(c.g, h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
