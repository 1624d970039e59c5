package apsp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
)

// TestCancellationSemanticsAPSP pins the §7 pipeline's context contract.
func TestCancellationSemanticsAPSP(t *testing.T) {
	g := graph.Connectify(graph.GNP(400, 0.03, graph.UniformWeight(1, 50), 41), 50)

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := ApproxCtx(pre, g, Options{Seed: 1}); !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("ApproxCtx(canceled) = %v, want context.Canceled/core.ErrCanceled", err)
	}

	// Mid-run cancel from the MPC driver's checkpoints.
	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	after := 0
	_, err := ApproxCtx(ctx, g, Options{Seed: 3, Progress: func(ev core.ProgressEvent) {
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

	// A live context changes nothing.
	for _, w := range []int{1, 4} {
		plain, err := ApproxCtx(context.Background(), g, Options{Seed: 21, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		withCtx, err := ApproxCtx(context.Background(), g, Options{Seed: 21, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.SpannerEdgeIDs, withCtx.SpannerEdgeIDs) ||
			plain.Rounds != withCtx.Rounds || plain.Bound != withCtx.Bound {
			t.Fatalf("workers=%d: context-free and live-context APSP runs differ", w)
		}
	}
}
