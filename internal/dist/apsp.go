package dist

import (
	"sync"
	"sync/atomic"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/par"
)

// APSP materializes the full all-pairs distance matrix of g: row v is the
// exact distance row from v. Sources are fanned out over a worker pool of
// GOMAXPROCS goroutines — the Graph is immutable and safe for concurrent
// readers, so the rows are embarrassingly parallel. Each row is one serial
// delta-stepping fill by a shared Solver; per-run state is pooled, so a row
// costs exactly its own n-float allocation. Memory is n²; this is for
// verification-scale graphs, as the §7 pipeline notes.
func APSP(g *graph.Graph) [][]float64 {
	return apspWorkers(g, par.Workers(0))
}

// apspWorkers is APSP with an explicit worker count; workers <= 1 runs the
// serial loop. Split out so the benchmarks can pin the pool size and track
// the parallel speedup.
func apspWorkers(g *graph.Graph, workers int) [][]float64 {
	s := NewSolver(g, SolverOptions{})
	m := make([][]float64, g.N())
	forWorkers(g.N(), workers, func(v int) { m[v] = s.Row(v) })
	return m
}

// parallelFor runs fn(0..n-1) on a pool of GOMAXPROCS workers. Iterations
// must be independent; each writes only its own output slot, so results are
// deterministic regardless of scheduling.
func parallelFor(n int, fn func(int)) {
	forWorkers(n, par.Workers(0), fn)
}

// forWorkers is the worker pool behind APSP and the stretch estimators:
// workers goroutines claim chunks of the index space from an atomic cursor.
func forWorkers(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	const chunk = 8
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
