package mpc

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

func pinWorkers() int {
	w := runtime.NumCPU()
	if w < 4 {
		w = 4
	}
	return w
}

// TestWorkerCountInvarianceMPC pins the tentpole contract on the simulated
// cluster: the spanner, round count, sort/tree-op counts and memory profile
// are bit-identical between a serial run and a multi-worker run.
func TestWorkerCountInvarianceMPC(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":  graph.GNP(250, 0.05, graph.UniformWeight(1, 50), 1),
		"grid": graph.Grid(15, 15, graph.UniformWeight(1, 5), 2),
		"pa":   graph.PreferentialAttachment(200, 4, graph.UnitWeight, 3),
	}
	for name, g := range graphs {
		for _, c := range []struct{ k, t int }{{4, 1}, {8, 2}} {
			serial, err := BuildSpannerCtx(context.Background(), g, c.k, c.t, 99, Options{Gamma: 0.5, Workers: 1})
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			parallel, err := BuildSpannerCtx(context.Background(), g, c.k, c.t, 99, Options{Gamma: 0.5, Workers: pinWorkers()})
			if err != nil {
				t.Fatalf("%s parallel: %v", name, err)
			}
			// Workers is the only field allowed to differ.
			serial.Workers, parallel.Workers = 0, 0
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("%s k=%d t=%d: MPC results differ between worker counts:\n  1: %+v\n  N: %+v",
					name, c.k, c.t, serial, parallel)
			}
		}
	}
}

// TestParallelRunStillCrossPlane re-asserts the cross-plane bit-identity
// with the reference engine when both sides run multi-worker.
func TestParallelRunStillCrossPlane(t *testing.T) {
	g := graph.GNP(220, 0.06, graph.UniformWeight(1, 30), 5)
	w := pinWorkers()
	ref, err := spanner.GeneralCtx(context.Background(), g, 8, 2, spanner.Options{Seed: 31, Workers: w})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildSpannerCtx(context.Background(), g, 8, 2, 31, Options{Gamma: 0.4, Workers: w})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.EdgeIDs, ref.EdgeIDs) {
		t.Fatal("multi-worker planes diverged")
	}
}

func TestNegativeWorkersRejectedMPC(t *testing.T) {
	g := graph.Path(4, graph.UnitWeight, 1)
	if _, err := BuildSpannerCtx(context.Background(), g, 2, 1, 1, Options{Gamma: 0.5, Workers: -1}); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestSimParallelPrimitives pins the Sim primitives themselves: a parallel
// SortByKey and Filter sequence, one Filter rewriting every tuple and one
// dropping some, leaves the same tuples and the same round bill as a serial
// one.
func TestSimParallelPrimitives(t *testing.T) {
	mk := func(workers int) *Sim {
		s, err := NewSim(400, 2000, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		s.SetWorkers(workers)
		ts := make([]Tuple, 2000)
		for i := range ts {
			ts[i] = Tuple{
				Src:  int32(i % 37),
				Dst:  int32(i % 11),
				W:    float64(i % 5),
				Orig: int32(i),
			}
		}
		if err := s.Load(ts); err != nil {
			t.Fatal(err)
		}
		return s
	}
	run := func(s *Sim) ([]Tuple, int, int) {
		// (Src, W, Orig): W is a small integer and Orig < 2000.
		if err := s.SortByKey(func(t *Tuple) uint64 {
			return uint64(t.Src)<<40 | uint64(t.W)<<32 | uint64(t.Orig)
		}); err != nil {
			t.Fatal(err)
		}
		s.Filter(func(t *Tuple) bool { t.Dst += t.Src; return true })
		s.Filter(func(t *Tuple) bool { return t.Orig%3 != 0 })
		return snapshot(t, s), s.Rounds(), s.Len()
	}
	serialTuples, serialRounds, serialLen := run(mk(1))
	parTuples, parRounds, parLen := run(mk(pinWorkers()))
	if serialRounds != parRounds || serialLen != parLen {
		t.Fatalf("accounting differs: rounds %d vs %d, len %d vs %d",
			serialRounds, parRounds, serialLen, parLen)
	}
	if !reflect.DeepEqual(serialTuples, parTuples) {
		t.Fatal("tuple contents differ between worker counts")
	}
}

// TestForEachSegmentBoundaries pins the segment decomposition: per-shard
// segment lengths, concatenated in shard order, give the start of every
// maximal equal-key run; an empty cluster has no segments.
func TestForEachSegmentBoundaries(t *testing.T) {
	s, err := NewSim(100, 50, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWorkers(pinWorkers())
	keys := []int32{3, 3, 3, 5, 7, 7, 9}
	ts := make([]Tuple, len(keys))
	for i, k := range keys {
		ts[i] = Tuple{Src: k}
	}
	if err := s.Load(ts); err != nil {
		t.Fatal(err)
	}
	starts := func(sameKey func(a, b *Tuple) bool) []int {
		lens := make([][]int, s.Workers())
		if err := s.ForEachSegment(sameKey, func(shard int, seg []Tuple) {
			lens[shard] = append(lens[shard], len(seg))
		}); err != nil {
			t.Fatal(err)
		}
		var out []int
		at := 0
		for _, part := range lens {
			for _, l := range part {
				out = append(out, at)
				at += l
			}
		}
		return out
	}
	got := starts(func(a, b *Tuple) bool { return a.Src == b.Src })
	want := []int{0, 3, 4, 6}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("segment starts %v, want %v", got, want)
	}
	// Empty cluster: no segments.
	if err := s.Load(nil); err != nil {
		t.Fatal(err)
	}
	if got := starts(func(a, b *Tuple) bool { return true }); got != nil {
		t.Fatalf("empty data produced segments %v", got)
	}
}

// TestCancellationSemanticsMPC pins the driver's context contract: fail-fast
// classification on a pre-canceled context, bounded checkpoints after a
// mid-run cancel, and bit-identity of live-context runs with the
// context-free path at every worker count.
func TestCancellationSemanticsMPC(t *testing.T) {
	g := graph.GNP(400, 0.04, graph.UniformWeight(1, 60), 23)

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := BuildSpannerCtx(pre, g, 6, 2, 1, Options{Gamma: 0.5}); !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("BuildSpannerCtx(canceled) = %v, want context.Canceled/core.ErrCanceled", err)
	}

	for _, workers := range []int{1, pinWorkers()} {
		ctx, cancel := context.WithCancel(context.Background())
		after := 0
		fired := false
		_, err := BuildSpannerCtx(ctx, g, 8, 2, 3, Options{Gamma: 0.5, Workers: workers,
			Progress: func(ev core.ProgressEvent) {
				if fired {
					after++
				}
				fired = true
				cancel()
			}})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: mid-run cancel = %v, want context.Canceled", workers, err)
		}
		if after > 1 {
			t.Fatalf("workers=%d: %d checkpoints fired after the cancel, want <= 1", workers, after)
		}

		plain, err := BuildSpannerCtx(context.Background(), g, 6, 2, 21, Options{Gamma: 0.5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := BuildSpannerCtx(context.Background(), g, 6, 2, 21, Options{Gamma: 0.5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, withCtx) {
			t.Fatalf("workers=%d: context-free and live-context MPC runs differ", workers)
		}
	}
}
