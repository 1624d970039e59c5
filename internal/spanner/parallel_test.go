package spanner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
)

// pinWorkers is the parallel worker count the determinism pins compare
// against Workers: 1. It exercises real concurrency even on small CI
// machines (goroutines interleave under -race regardless of core count).
func pinWorkers() int {
	w := runtime.NumCPU()
	if w < 4 {
		w = 4
	}
	return w
}

// TestWorkerCountInvariance is the engine's parallelization contract: equal
// seeds yield bit-identical spanners, iteration/epoch counts and stretch
// reports at every worker count, for every algorithm family.
func TestWorkerCountInvariance(t *testing.T) {
	w := pinWorkers()
	for name, g := range testGraphs() {
		builds := map[string]func(workers int) (*Result, error){
			"general": func(workers int) (*Result, error) {
				return GeneralCtx(context.Background(), g, 8, 2, Options{Seed: 99, Workers: workers, MeasureRadius: true})
			},
			"sqrt-k": func(workers int) (*Result, error) {
				return SqrtKCtx(context.Background(), g, 9, Options{Seed: 101, Workers: workers})
			},
			"baswana-sen": func(workers int) (*Result, error) {
				return BaswanaSenCtx(context.Background(), g, 4, Options{Seed: 103, Workers: workers})
			},
		}
		for alg, build := range builds {
			serial, err := build(1)
			if err != nil {
				t.Fatalf("%s/%s serial: %v", name, alg, err)
			}
			parallel, err := build(w)
			if err != nil {
				t.Fatalf("%s/%s workers=%d: %v", name, alg, w, err)
			}
			if !reflect.DeepEqual(serial.EdgeIDs, parallel.EdgeIDs) {
				t.Fatalf("%s/%s: spanner edges differ between Workers=1 and Workers=%d", name, alg, w)
			}
			if !reflect.DeepEqual(serial.Stats, parallel.Stats) {
				t.Fatalf("%s/%s: stats differ between worker counts:\n  1: %+v\n  %d: %+v",
					name, alg, serial.Stats, w, parallel.Stats)
			}
			// The stretch report (the verification-side artifact) must pin too.
			repS, err := Verify(g, serial, StretchBound(16, 4))
			if err != nil {
				t.Fatalf("%s/%s verify serial: %v", name, alg, err)
			}
			repP, err := Verify(g, parallel, StretchBound(16, 4))
			if err != nil {
				t.Fatalf("%s/%s verify parallel: %v", name, alg, err)
			}
			if !reflect.DeepEqual(repS, repP) {
				t.Fatalf("%s/%s: stretch reports differ between worker counts", name, alg)
			}
		}
	}
}

func TestWorkerCountInvarianceWHP(t *testing.T) {
	g := graph.GNP(260, 0.05, graph.UniformWeight(1, 40), 7)
	serial, whpS, err := GeneralWHPCtx(context.Background(), g, 8, 2, 6, Options{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, whpP, err := GeneralWHPCtx(context.Background(), g, 8, 2, 6, Options{Seed: 11, Workers: pinWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.EdgeIDs, parallel.EdgeIDs) || !reflect.DeepEqual(serial.Stats, parallel.Stats) {
		t.Fatal("WHP spanner differs between worker counts")
	}
	if !reflect.DeepEqual(whpS, whpP) {
		t.Fatal("WHP selection statistics differ between worker counts")
	}
}

func TestWorkerCountInvarianceUnweighted(t *testing.T) {
	g := graph.GNP(300, 0.06, graph.UnitWeight, 13)
	serial, err := UnweightedCtx(context.Background(), g, 3, UnweightedOptions{Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := UnweightedCtx(context.Background(), g, 3, UnweightedOptions{Seed: 17, Workers: pinWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.EdgeIDs, parallel.EdgeIDs) || !reflect.DeepEqual(serial.Stats, parallel.Stats) {
		t.Fatal("unweighted spanner differs between worker counts")
	}
}

// TestParallelRepetitionsDeterminism pins the per-shard-stream repetition
// runner: concurrent repetitions must select the same winner as serial ones.
func TestParallelRepetitionsDeterminism(t *testing.T) {
	g := graph.GNP(300, 0.05, graph.UniformWeight(1, 9), 23)
	serial, err := GeneralCtx(context.Background(), g, 6, 2, Options{Seed: 29, Repetitions: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := GeneralCtx(context.Background(), g, 6, 2, Options{Seed: 29, Repetitions: 8, Workers: pinWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.EdgeIDs, parallel.EdgeIDs) {
		t.Fatal("repetition winner differs between worker counts")
	}
	if serial.Stats.Repetition != parallel.Stats.Repetition {
		t.Fatalf("winning repetition index differs: %d vs %d",
			serial.Stats.Repetition, parallel.Stats.Repetition)
	}
}

func TestNegativeWorkersRejected(t *testing.T) {
	g := graph.Path(4, graph.UnitWeight, 1)
	if _, err := GeneralCtx(context.Background(), g, 4, 2, Options{Workers: -1}); err == nil {
		t.Fatal("General accepted Workers < 0")
	}
	if _, err := BaswanaSenCtx(context.Background(), g, 4, Options{Workers: -2}); err == nil {
		t.Fatal("BaswanaSen accepted Workers < 0")
	}
	if _, _, err := GeneralWHPCtx(context.Background(), g, 4, 2, 0, Options{Workers: -1}); err == nil {
		t.Fatal("GeneralWHP accepted Workers < 0")
	}
	unit := graph.Path(4, graph.UnitWeight, 1)
	if _, err := UnweightedCtx(context.Background(), unit, 2, UnweightedOptions{Workers: -1}); err == nil {
		t.Fatal("Unweighted accepted Workers < 0")
	}
}

// TestCancellationSemantics pins the three promises of the context plumbing:
// a pre-canceled context fails fast with ctx.Err() classification; a cancel
// issued at a checkpoint is honored within a bounded number of further
// checkpoints; and supplying a live context never changes the output —
// equal-seed uncanceled runs are bit-identical to the context-free path at
// every worker count.
func TestCancellationSemantics(t *testing.T) {
	g := graph.GNP(500, 0.03, graph.UniformWeight(1, 60), 17)
	unit := graph.GNP(300, 0.04, graph.UnitWeight, 18)

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := GeneralCtx(pre, g, 6, 2, Options{Seed: 1}); !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("GeneralCtx(canceled) = %v, want context.Canceled/core.ErrCanceled", err)
	}
	if _, err := BaswanaSenCtx(pre, g, 4, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("BaswanaSenCtx(canceled) = %v", err)
	}
	if _, _, err := GeneralWHPCtx(pre, g, 6, 2, 4, Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("GeneralWHPCtx(canceled) = %v", err)
	}
	if _, err := UnweightedCtx(pre, unit, 2, UnweightedOptions{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("UnweightedCtx(canceled) = %v", err)
	}

	// Mid-run cancel from the first checkpoint: the engine must stop within
	// a bounded number of further checkpoints (one trailing contract event
	// can share the canceling iteration's loop body; nothing after that).
	for _, workers := range []int{1, pinWorkers()} {
		ctx, cancel := context.WithCancel(context.Background())
		after := 0
		fired := false
		_, err := GeneralCtx(ctx, g, 8, 2, Options{Seed: 3, Workers: workers,
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
	}

	// A live context changes nothing: bit-identical to the context-free path
	// at every worker count.
	for _, workers := range []int{1, pinWorkers()} {
		plain, err := GeneralCtx(context.Background(), g, 8, 2, Options{Seed: 41, Workers: workers, MeasureRadius: true})
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := GeneralCtx(context.Background(), g, 8, 2, Options{Seed: 41, Workers: workers, MeasureRadius: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, withCtx) {
			t.Fatalf("workers=%d: context-free and live-context runs differ", workers)
		}
	}

	// Repetitions: a canceled context stops the fan-out and drains every
	// in-flight run; no goroutines outlive the call.
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GeneralCtx(ctx, g, 6, 2, Options{Seed: 5, Repetitions: 6, Workers: pinWorkers()}); !errors.Is(err, context.Canceled) {
		t.Fatalf("repetitions cancel = %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked after canceled repetitions: %d -> %d", before, n)
	}
}
