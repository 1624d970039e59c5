package cluster

import (
	"fmt"
	"runtime"
	"testing"

	"mpcspanner/internal/par"
	"mpcspanner/internal/xrand"
)

// BenchmarkMinDedup pins Step C's min-weight pair deduplication — the
// contraction's dominant cost — serial vs parallel sort, on a retained
// radix sorter as the engine runs it.
func BenchmarkMinDedup(b *testing.B) {
	const n = 500_000
	src := xrand.New(9)
	base := make([]QEdge, n)
	for i := range base {
		base[i] = QEdge{A: src.Intn(20_000), B: src.Intn(20_000), W: float64(src.Intn(100)), Orig: i}
	}
	scratch := make([]QEdge, n)
	counts := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		counts = append(counts, max)
	}
	var rs par.RadixSorter
	for _, w := range counts {
		b.Run(fmt.Sprintf("m=500k/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(scratch, base)
				if out := MinDedup(scratch, w, &rs); len(out) == 0 {
					b.Fatal("empty dedup")
				}
			}
		})
	}
}
