package par

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"mpcspanner/internal/xrand"
)

// benchWorkerCounts sweeps serial vs the GOMAXPROCS default, collapsing to
// one entry on single-core machines so b.Run never emits duplicate keys.
func benchWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	if max == 1 {
		return []int{1}
	}
	return []int{1, max}
}

// benchWork is a deliberately non-trivial per-index kernel so the benchmark
// measures dispatch overhead against real work, as the construction loops do.
func benchWork(i int) float64 {
	x := float64(i%997) + 1
	for k := 0; k < 40; k++ {
		x = math.Sqrt(x*1.7 + 3)
	}
	return x
}

func BenchmarkFor(b *testing.B) {
	const n = 200_000
	out := make([]float64, n)
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				For(w, n, func(j int) { out[j] = benchWork(j) })
			}
		})
	}
}

// BenchmarkRadixSortKeys measures the keyed shuffle engine; the retained
// RadixSorter makes steady-state iterations allocation-free.
func BenchmarkRadixSortKeys(b *testing.B) {
	const n = 300_000
	rng := xrand.New(9)
	base := make([]uint64, n)
	for i := range base {
		base[i] = rng.Uint64() >> 24 // ~40 live bits, like a label pair at n ≈ 10⁶
	}
	keys := make([]uint64, n)
	idx := make([]uint32, n)
	var rs RadixSorter
	for _, w := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(keys, base)
				for j := range idx {
					idx[j] = uint32(j)
				}
				rs.Sort(w, keys, idx)
			}
		})
	}
}
