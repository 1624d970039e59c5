package cclique

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

// benchWorkerCounts sweeps serial vs the GOMAXPROCS default.
func benchWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	if max == 1 {
		return []int{1}
	}
	return []int{1, max}
}

// BenchmarkCliqueSpanner pins the Theorem 8.1 construction (the WHP
// selection plans every iteration under ~log n coin sets, so the parallel
// grow loop dominates the wall-clock).
func BenchmarkCliqueSpanner(b *testing.B) {
	g := graph.GNP(4_000, 10/4_000.0, graph.UniformWeight(1, 50), 7)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("n=4k/k=8/t=2/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := BuildSpannerCtx(context.Background(), g, 8, 2, spanner.Options{Seed: 7, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
