package oracle

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
)

// TestCancellationSemanticsOracle pins the serving layer's context contract:
// typed classification for canceled queries, checkpointing between batch
// sources, and no stranded singleflight waiters.
func TestCancellationSemanticsOracle(t *testing.T) {
	g := graph.Connectify(graph.GNP(300, 0.04, graph.UniformWeight(1, 30), 51), 30)
	o := New(g, Options{MaxRows: 16, Workers: 4})

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := o.Row(pre, 0); !errors.Is(err, context.Canceled) || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("Row(canceled) = %v, want context.Canceled/core.ErrCanceled", err)
	}
	if _, err := o.Query(pre, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query(canceled) = %v", err)
	}
	pairs := ZipfWorkload(g.N(), 200, 1.2, 7)
	if _, err := o.QueryMany(pre, pairs); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryMany(canceled) = %v", err)
	}

	// Cancellation classifies uniformly regardless of cache residency: warm
	// the rows, then re-issue the same canceled calls.
	mustQueryMany(t, o, pairs)
	if _, err := o.Row(pre, pairs[0].U); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("warm Row(canceled) = %v, want ErrCanceled", err)
	}
	if _, err := o.QueryMany(pre, pairs); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("warm QueryMany(canceled) = %v, want ErrCanceled", err)
	}

	// Typed argument errors.
	if _, err := o.Query(context.Background(), 0, g.N()); !errors.Is(err, core.ErrInvalidOption) {
		t.Fatalf("Query(bad v) = %v, want core.ErrInvalidOption", err)
	}
	var oe *core.OptionError
	_, err := o.QueryMany(context.Background(), []Pair{{U: -1, V: 0}})
	if !errors.As(err, &oe) {
		t.Fatalf("QueryMany(bad pair) = %v, want *core.OptionError", err)
	}

	// A waiter canceled while another goroutine computes the row must
	// return promptly without stranding or corrupting the in-flight entry.
	fresh := New(g, Options{MaxRows: 4, Workers: 2})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Computes and publishes.
		if _, err := fresh.Row(context.Background(), 7); err != nil {
			t.Error(err)
		}
	}()
	waiterCtx, cancelWaiter := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancelWaiter()
	_, werr := fresh.Row(waiterCtx, 7)
	wg.Wait()
	if werr != nil && !errors.Is(werr, core.ErrCanceled) {
		t.Fatalf("canceled waiter returned %v, want nil or ErrCanceled", werr)
	}
	if row := mustRow(t, fresh, 7); row[7] != 0 {
		t.Fatal("row corrupted after canceled waiter")
	}

	// No goroutines leak from canceled batches.
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		leakO := New(g, Options{MaxRows: 8, Workers: 8})
		if _, err := leakO.QueryMany(ctx, pairs); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled batch = %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before+2 {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked after canceled batches: %d -> %d", before, n)
	}
}
