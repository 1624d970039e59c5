package spanner

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mpcspanner/internal/graph"
)

// benchWorkerCounts are the pool sizes the serial-vs-parallel benchmarks
// sweep: 1 is the pre-parallelization baseline, GOMAXPROCS is the default
// the facade selects.
func benchWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	if max == 1 {
		return []int{1}
	}
	return []int{1, max}
}

// BenchmarkGeneralConstruct is the bench-regression gate's primary pin: the
// §5 general algorithm at n≈20k, serial vs parallel (the ISSUE-3 acceptance
// benchmark).
func BenchmarkGeneralConstruct(b *testing.B) {
	g := graph.GNP(20_000, 12/20_000.0, graph.UniformWeight(1, 100), 7)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("n=20k/k=16/t=4/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := GeneralCtx(context.Background(), g, 16, 4, Options{Seed: 7, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(r.Size()), "spanner-edges")
			}
		})
	}
}

// BenchmarkBaswanaSenConstruct pins the [BS07] baseline (classic per-vertex
// Phase 2, no contraction) under the same sweep.
func BenchmarkBaswanaSenConstruct(b *testing.B) {
	g := graph.GNP(20_000, 10/20_000.0, graph.UniformWeight(1, 50), 11)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("n=20k/k=8/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BaswanaSenCtx(context.Background(), g, 8, Options{Seed: 11, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRepetitions pins the parallel-repetition runner (Theorem 8.1's
// w.h.p. mechanism): 8 independent runs, serial vs concurrent.
func BenchmarkRepetitions(b *testing.B) {
	g := graph.GNP(5_000, 10/5_000.0, graph.UniformWeight(1, 20), 13)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("reps=8/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := GeneralCtx(context.Background(), g, 8, 2, Options{Seed: 13, Repetitions: 8, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUnweightedConstruct pins the Appendix B path (parallel ball
// growing dominates).
func BenchmarkUnweightedConstruct(b *testing.B) {
	g := graph.GNP(10_000, 16/10_000.0, graph.UnitWeight, 17)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("n=10k/k=3/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := UnweightedCtx(context.Background(), g, 3, UnweightedOptions{Seed: 17, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
