package mpc

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"runtime"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
)

// BenchmarkSimSortByKey is the keyed-shuffle steady state the acceptance
// criteria pin: one radix sort of the resident tuples per op on a sized
// arena, so allocs/op must report ~0. The keys alternate between the
// driver's (Src, cluster[Dst]) grouping key, with every vertex its own
// cluster as at the load, and a (Dst, Src) key held here, so every
// iteration really permutes.
func BenchmarkSimSortByKey(b *testing.B) {
	g := graph.GNP(20_000, 12/20_000.0, graph.UniformWeight(1, 100), 7)
	sim, err := NewSim(g.N(), 2*g.M(), 0.5)
	if err != nil {
		b.Fatal(err)
	}
	tuples := make([]Tuple, 0, 2*g.M())
	for id, e := range g.Edges() {
		u, v := int32(e.U), int32(e.V)
		tuples = append(tuples,
			Tuple{Src: u, Dst: v, W: e.W, Orig: int32(id)},
			Tuple{Src: v, Dst: u, W: e.W, Orig: int32(id)},
		)
	}
	if err := sim.Load(tuples); err != nil {
		b.Fatal(err)
	}
	cluster := make([]int32, g.N())
	for i := range cluster {
		cluster[i] = int32(i)
	}
	enc := newKeyEncoding(g.N(), cluster)
	vb := uint(bits.Len(uint(g.N() - 1)))
	mirror := func(t *Tuple) uint64 { return uint64(t.Dst)<<vb | uint64(t.Src) }
	if err := sim.SortByKey(enc.group); err != nil { // size the arena
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := enc.group
		if i%2 == 1 {
			key = mirror
		}
		if err := sim.SortByKey(key); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMPCBuild pins the simulated distributed construction at n≈20k,
// serial vs parallel: the sample sorts and the per-machine local passes are
// the wall-clock, and both fan out over the worker pool.
func BenchmarkMPCBuild(b *testing.B) {
	g := graph.GNP(20_000, 12/20_000.0, graph.UniformWeight(1, 100), 7)
	counts := []int{1}
	if max := runtime.GOMAXPROCS(0); max > 1 {
		counts = append(counts, max)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("n=20k/k=16/t=4/workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := BuildSpannerCtx(context.Background(), g, 16, 4, 7, Options{Gamma: 0.5, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Rounds), "mpc-rounds")
			}
		})
	}
	// The instrumented build must stay indistinguishable from the plain one
	// (nil-safe handles, no locks, no deferred closures on the hot paths) —
	// this sub-run keeps that claim measurable in the bench-regression gate.
	reg := obs.NewRegistry()
	b.Run("n=20k/k=16/t=4/workers=1/metrics=on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := BuildSpannerCtx(context.Background(), g, 16, 4, 7, Options{Gamma: 0.5, Workers: 1, Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Rounds), "mpc-rounds")
		}
	})
}

// BenchmarkMPCBuildSpill is the out-of-core acceptance benchmark, gated by
// BENCH_large.json (bench-large CI job, not the PR gate): one full MPC
// build of a 1M-vertex sparse graph under a tuple-byte budget of ¼ of the
// resident footprint, followed by the same build fully resident. Both rows
// report edges/s and peak RSS; the budgeted row additionally reports the
// spill traffic the build paid to stay inside the budget: bytes spilled,
// run files written and external merge passes. The budgeted sub-benchmark
// runs FIRST: VmHWM is a process-wide high-water mark, so only that
// ordering lets its peak_rss_bytes show the out-of-core build's own
// footprint rather than the resident build's.
//
// Skipped unless BENCH_LARGE=1 — the PR gate's -bench regex would match
// the name, and a 1M-vertex build has no place in the per-push tier.
func BenchmarkMPCBuildSpill(b *testing.B) {
	if os.Getenv("BENCH_LARGE") == "" {
		b.Skip("set BENCH_LARGE=1 to run the 1M-vertex out-of-core benchmark")
	}
	g := graph.Connectify(graph.GNP(1_000_000, 8/1_000_000.0, graph.UniformWeight(1, 100), 7), 50)
	budget := 2 * int64(g.M()) * tupleBytes / 4
	run := func(b *testing.B, opt Options, wantSpill bool) {
		b.ReportAllocs()
		b.ResetTimer()
		var spilled, runs, passes int64
		for i := 0; i < b.N; i++ {
			res, err := BuildSpannerCtx(context.Background(), g, 8, 3, 7, opt)
			if err != nil {
				b.Fatal(err)
			}
			if got := res.SpilledBytes > 0; got != wantSpill {
				b.Fatalf("spilled=%v, want %v (budget=%d)", got, wantSpill, opt.MemoryBudget)
			}
			spilled, runs, passes = res.SpilledBytes, res.SpillRuns, res.MergePasses
		}
		b.StopTimer()
		b.ReportMetric(float64(g.M())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		if rss := obs.PeakRSSBytes(); rss > 0 {
			b.ReportMetric(float64(rss), "peak_rss_bytes")
		}
		if wantSpill {
			b.ReportMetric(float64(spilled), "spilled_bytes")
			b.ReportMetric(float64(runs), "run_files")
			b.ReportMetric(float64(passes), "merge_passes")
		}
	}
	b.Run("n=1M/k=8/t=3/budget=quarter", func(b *testing.B) {
		run(b, Options{Gamma: 0.5, Workers: 0, MemoryBudget: budget}, true)
	})
	b.Run("n=1M/k=8/t=3/resident", func(b *testing.B) {
		run(b, Options{Gamma: 0.5, Workers: 0}, false)
	})
}
