package cclique

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

// TestWorkerCountInvarianceClique pins the Theorem 8.1 path: spanner edges,
// clique round bill, engine stats and the WHP selection trace are
// bit-identical between serial and multi-worker runs.
func TestWorkerCountInvarianceClique(t *testing.T) {
	g := graph.GNP(220, 0.06, graph.UniformWeight(1, 25), 3)
	serial, err := BuildSpannerCtx(context.Background(), g, 6, 2, spanner.Options{Seed: 17, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := BuildSpannerCtx(context.Background(), g, 6, 2, spanner.Options{Seed: 17, Workers: pinWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("clique results differ between worker counts:\n  1: %+v\n  N: %+v",
			serial.Stats, parallel.Stats)
	}
}

// TestWorkerCountInvarianceAPSP pins the Corollary 1.5 pipeline including
// the measured stretch report.
func TestWorkerCountInvarianceAPSP(t *testing.T) {
	g := graph.Connectify(graph.GNP(150, 0.05, graph.UnitWeight, 5), 1)
	serial, err := ApproxAPSPCtx(context.Background(), g, spanner.Options{Seed: 19, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := ApproxAPSPCtx(context.Background(), g, spanner.Options{Seed: 19, Workers: pinWorkers()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.SpannerEdgeIDs, parallel.SpannerEdgeIDs) ||
		serial.Rounds != parallel.Rounds {
		t.Fatal("APSP runs differ between worker counts")
	}
	repS, err := serial.MeasureApproximation(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	repP, err := parallel.MeasureApproximation(12, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repS, repP) {
		t.Fatal("stretch reports differ between worker counts")
	}
}

func TestNegativeWorkersRejectedClique(t *testing.T) {
	g := graph.Path(4, graph.UnitWeight, 1)
	if _, err := BuildSpannerCtx(context.Background(), g, 2, 1, spanner.Options{Seed: 1, Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
}

// TestCancellationSemanticsCClique pins the context contract of the Theorem
// 8.1 and Corollary 1.5 pipelines: fail-fast classification on a canceled
// context, a bounded number of checkpoints after a mid-run cancel, and
// bit-identity of live-context runs with the context-free path.
func TestCancellationSemanticsCClique(t *testing.T) {
	g := graph.GNP(300, 0.05, graph.UniformWeight(1, 40), 31)

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := BuildSpannerCtx(pre, g, 6, 2, spanner.Options{Seed: 1}); !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("BuildSpannerCtx(canceled) = %v, want context.Canceled/core.ErrCanceled", err)
	}
	if _, err := ApproxAPSPCtx(pre, g, spanner.Options{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ApproxAPSPCtx(canceled) = %v, want context.Canceled", err)
	}

	// Mid-run cancel via the WHP engine's progress checkpoints.
	ctx, cancel := context.WithCancel(context.Background())
	after := 0
	fired := false
	_, err := BuildSpannerCtx(ctx, g, 8, 2, spanner.Options{Seed: 3,
		Progress: func(ev core.ProgressEvent) {
			if fired {
				after++
			}
			fired = true
			cancel()
		}})
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel = %v, want context.Canceled", err)
	}
	if after > 1 {
		t.Fatalf("%d checkpoints fired after the cancel, want <= 1", after)
	}

	// Live contexts change nothing, at serial and parallel worker counts.
	for _, w := range []int{1, pinWorkers()} {
		plain, err := BuildSpannerCtx(context.Background(), g, 6, 2, spanner.Options{Seed: 21, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := BuildSpannerCtx(context.Background(), g, 6, 2, spanner.Options{Seed: 21, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, withCtx) {
			t.Fatalf("workers=%d: context-free and live-context clique builds differ", w)
		}
	}
}
