package par

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"mpcspanner/internal/core"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("Workers(0) must resolve to at least one worker")
	}
	if Workers(-3) != 1 {
		t.Fatalf("Workers(-3) = %d, want clamp to 1", Workers(-3))
	}
	if Workers(7) != 7 {
		t.Fatalf("Workers(7) = %d", Workers(7))
	}
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 255, 256, 10_000} {
		for _, w := range []int{1, 2, 3, 8, 64} {
			hits := make([]int32, n)
			For(w, n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d hit %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestForShardBoundaries(t *testing.T) {
	for _, n := range []int{256, 1000, 4096} {
		for _, w := range []int{2, 3, 7, 16} {
			var mu atomic.Int64
			seen := make([]bool, n)
			shards := make([]bool, w)
			ForShard(w, n, func(shard, lo, hi int) {
				if shard < 0 || shard >= w {
					t.Errorf("shard id %d out of range", shard)
				}
				shards[shard] = true
				for i := lo; i < hi; i++ {
					if seen[i] {
						t.Errorf("index %d covered twice", i)
					}
					seen[i] = true
					mu.Add(1)
				}
			})
			if mu.Load() != int64(n) {
				t.Fatalf("n=%d w=%d: covered %d indexes", n, w, mu.Load())
			}
		}
	}
}

// TestShardMergeOrderIndependence is the accumulation contract every rewired
// package relies on: concatenating per-shard outputs in shard order equals
// the serial index-order sequence, at every worker count.
func TestShardMergeOrderIndependence(t *testing.T) {
	const n = 5000
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, w := range []int{1, 2, 4, 8, 13} {
		parts := make([][]int, w)
		ForShard(w, n, func(shard, lo, hi int) {
			for i := lo; i < hi; i++ {
				parts[shard] = append(parts[shard], i*i)
			}
		})
		var got []int
		for _, p := range parts {
			got = append(got, p...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("w=%d: sharded concatenation differs from index order", w)
		}
	}
}

func TestMapIndexAddressed(t *testing.T) {
	out := Map(8, 1000, func(i int) int { return 3 * i })
	for i, v := range out {
		if v != 3*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	if len(Map(4, 0, func(i int) int { return i })) != 0 {
		t.Fatal("empty map")
	}
}

func TestStreamsIndependentAndReproducible(t *testing.T) {
	a := Streams(42, 8)
	b := Streams(42, 8)
	if len(a) != 8 {
		t.Fatalf("got %d streams", len(a))
	}
	for i := range a {
		for d := 0; d < 16; d++ {
			if a[i].Uint64() != b[i].Uint64() {
				t.Fatalf("stream %d draw %d not reproducible", i, d)
			}
		}
	}
	// Distinct shards draw distinct sequences (overwhelmingly likely).
	c := Streams(42, 2)
	if c[0].Uint64() == c[1].Uint64() {
		t.Fatal("shard streams 0 and 1 coincide on the first draw")
	}
	// A different seed shifts every stream.
	d := Streams(43, 1)
	e := Streams(42, 1)
	if d[0].Uint64() == e[0].Uint64() {
		t.Fatal("seed does not separate streams")
	}
}

// TestStreamsOrderIndependentMerge demonstrates the intended usage pattern:
// shards draw from their own streams concurrently, and the shard-order
// concatenation is identical to a serial left-to-right evaluation.
func TestStreamsOrderIndependentMerge(t *testing.T) {
	const shards, draws = 6, 50
	serial := make([][]uint64, shards)
	for s, src := range Streams(7, shards) {
		serial[s] = make([]uint64, draws)
		for d := 0; d < draws; d++ {
			serial[s][d] = src.Uint64()
		}
	}
	concurrent := make([][]uint64, shards)
	srcs := Streams(7, shards)
	For(shards, shards, func(s int) {
		concurrent[s] = make([]uint64, draws)
		for d := 0; d < draws; d++ {
			concurrent[s][d] = srcs[s].Uint64()
		}
	})
	if !reflect.DeepEqual(serial, concurrent) {
		t.Fatal("concurrent shard draws differ from serial shard draws")
	}
}

// TestForCoarseCtx pins the cancelable coarse dispatch: full iteration when
// live, deterministic lowest-index error reporting, prompt classified return
// on cancellation, and all workers joined.
func TestForCoarseCtx(t *testing.T) {
	// Live context: every index runs exactly once, any worker count.
	for _, workers := range []int{1, 4} {
		var hits [97]atomic.Int32
		if err := ForCoarseCtx(context.Background(), workers, len(hits), func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}

	// fn errors: the lowest-indexed error wins at every worker count.
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForCoarseCtx(context.Background(), workers, 64, func(i int) error {
			if i == 9 || i == 40 {
				return fmt.Errorf("index %d: %w", i, sentinel)
			}
			return nil
		})
		if !errors.Is(err, sentinel) || err.Error() != "index 9: boom" {
			t.Fatalf("workers=%d: error %v, want the index-9 error", workers, err)
		}
	}

	// Canceled context: classified error, and no fn invocation after every
	// worker has seen the cancellation (the call always joins its workers).
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	err := ForCoarseCtx(ctx, 4, 32, func(i int) error { ran++; return nil })
	if !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("canceled ForCoarseCtx = %v, want context.Canceled/core.ErrCanceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d iterations ran under a pre-canceled context", ran)
	}
}
