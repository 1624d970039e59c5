// Package par is the deterministic parallel-execution layer of the
// construction pipeline. Every construction-side package (internal/spanner,
// internal/mpc, internal/cclique, internal/pram, internal/cluster) runs its
// data-parallel passes through the primitives here instead of hand-rolled
// goroutines, and every primitive carries the same contract:
//
//	equal inputs produce bit-identical outputs at every worker count.
//
// The contract is met by construction, not by locking:
//
//   - For/ForShard/Map use *static chunking*: the index space [0, n) is cut
//     into at most `workers` contiguous shards whose boundaries depend only
//     on (n, workers), and results are either index-addressed (each
//     iteration writes its own slot) or merged by concatenating per-shard
//     accumulators in shard order — which equals index order, so the merged
//     sequence is independent of goroutine scheduling.
//   - RadixSorter (radix.go) is a stable LSD radix sort over uint64 keys:
//     scatter offsets are precomputed per (pass, shard, bucket), so the
//     output equals the serial sort.SliceStable result at every worker
//     count. It is the package's one sort; callers key records by the
//     fields that define their groups and find a group's minimum by
//     scanning it.
//   - Streams derives per-shard xrand streams keyed by shard index, so
//     random decisions made inside shard s are a pure function of
//     (seed, s, position) and can be merged order-independently.
//
// Worker counts: 0 selects runtime.GOMAXPROCS(0) ("as fast as the hardware
// allows"), 1 forces the serial path, larger values pin the pool size.
// Negative counts are a configuration error that callers reject at their
// option-validation boundary (see spanner.Options, mpc.Options and the
// facade); Workers clamps them to 1 as a defensive fallback.
package par

import (
	"context"
	"runtime"
	"sync"

	"mpcspanner/internal/core"
	"mpcspanner/internal/xrand"
)

// Workers resolves a requested worker count: 0 selects GOMAXPROCS, values
// below zero clamp to 1 (callers validate and reject negatives before
// resolving; the clamp is defense in depth).
func Workers(requested int) int {
	if requested == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// CheckWorkers is the shared validation every option surface applies before
// resolving a worker count: negative values are a configuration error. The
// prefix names the rejecting layer ("spanner: Options.Workers", "mpc:
// Options.Workers", …) so the error reads the same everywhere while still
// locating the misconfiguration. The returned error is a *core.OptionError,
// so every layer's rejection matches errors.Is(err, core.ErrInvalidOption)
// and surfaces its field/value/reason through errors.As.
func CheckWorkers(prefix string, w int) error {
	if w < 0 {
		return &core.OptionError{Field: prefix, Value: w,
			Reason: "must be >= 0 (0 = GOMAXPROCS, 1 = serial)"}
	}
	return nil
}

// serialCutoff is the index-space size below which a parallel dispatch costs
// more than it saves; smaller loops run inline on the calling goroutine.
const serialCutoff = 256

// ShardCount returns the number of shards ForShard(workers, n, …) will
// actually invoke, so callers can size per-shard state (scratch buffers,
// accumulators) to what runs instead of the full worker count.
func ShardCount(workers, n int) int {
	if n <= 0 {
		return 0
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < serialCutoff {
		return 1
	}
	return workers
}

// ForShard cuts [0, n) into at most `workers` contiguous shards and invokes
// fn(shard, lo, hi) once per non-empty shard, concurrently. Shard boundaries
// are a pure function of (n, workers): shard w covers [w·n/W, (w+1)·n/W).
// Shard ids are always < workers, so callers may allocate per-shard
// accumulators as make([]T, workers) and merge them in shard order — that
// order equals index order, which is what makes sharded accumulation
// deterministic. Small inputs (n < 256) run inline as a single shard 0.
func ForShard(workers, n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < serialCutoff {
		recordInline()
		fn(0, 0, n)
		return
	}
	recordParallel(workers, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	wg.Wait()
}

// ForCoarse is For without the small-n serial cutoff: every chunk runs on
// its own goroutine even for tiny n. Use it for coarse-grained tasks — whole
// algorithm runs, per-repetition instances — where n is small but each
// iteration is expensive enough to dwarf a goroutine dispatch.
func ForCoarse(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		recordInline()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	recordParallel(workers, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}

// ForCoarseCtx is the context-aware ForCoarse: the cooperative dispatch the
// cancelable coarse fan-outs (per-repetition spanner runs, per-source oracle
// fills) run on. Every worker checkpoints ctx before each iteration and stops
// its remaining chunk once ctx is done or its fn returned an error; all
// workers are always joined before returning, so cancellation never leaks a
// goroutine and never leaves fn running after ForCoarseCtx returns.
//
// The returned error is the lowest-indexed fn error (deterministic at every
// worker count), or core.Canceled(ctx.Err()) when the context ended the run.
// When ctx is never canceled and no fn errs, the iteration pattern is
// identical to ForCoarse — results stay bit-identical at every worker count.
func ForCoarseCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return core.Check(ctx)
	}
	if workers > n {
		workers = n
	}
	errAt := make([]error, n)
	failed := false
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := core.Check(ctx); err != nil {
				return err
			}
			if errAt[i] = fn(i); errAt[i] != nil {
				failed = true
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if core.Check(ctx) != nil {
						return
					}
					if errAt[i] = fn(i); errAt[i] != nil {
						return
					}
				}
			}(w*n/workers, (w+1)*n/workers)
		}
		wg.Wait()
		for _, err := range errAt {
			if err != nil {
				failed = true
				break
			}
		}
	}
	if failed {
		for _, err := range errAt {
			if err != nil {
				return err
			}
		}
	}
	return core.Check(ctx)
}

// For runs fn(i) for every i in [0, n) across `workers` goroutines with
// static chunking. Iterations must be independent; when each writes only its
// own output slot the result is deterministic regardless of scheduling.
func For(workers, n int, fn func(i int)) {
	ForShard(workers, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Map evaluates fn over [0, n) in parallel and returns the index-addressed
// results: out[i] = fn(i). The output is identical at every worker count.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	For(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// streamTag namespaces Streams-derived keys inside the xrand key space so
// shard streams never collide with algorithm coin domains.
const streamTag = 0x70617273 // "pars"

// Streams derives `shards` independent deterministic random streams from
// seed, keyed by shard index. A value drawn inside shard s is a pure
// function of (seed, s, draw position) — independent of how many shards run
// concurrently or in what order — so per-shard random decisions can be
// merged order-independently by concatenating shard outputs in shard order.
func Streams(seed uint64, shards int) []*xrand.Source {
	out := make([]*xrand.Source, shards)
	for i := range out {
		out[i] = xrand.Split(seed, streamTag, uint64(i))
	}
	return out
}
