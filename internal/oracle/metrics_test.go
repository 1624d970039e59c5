package oracle

import (
	"context"
	"sync"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/xrand"
)

// TestStatsCoherentWithMetrics pins satellite contract of the obs rewiring:
// Stats() and the registry read the very same atomic counters, so after any
// concurrent workload they tell one story (run under -race in CI). The
// resident gauge closes the books: Resident = Misses - PointFills -
// Evictions at quiescence.
func TestStatsCoherentWithMetrics(t *testing.T) {
	g := testGraph(t, 150, 17)
	reg := obs.NewRegistry()
	o := New(g, Options{shards: 4, MaxRows: 16, Metrics: reg})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			rng := xrand.Split(uint64(w), 0x636f6865)
			for i := 0; i < 40; i++ {
				if _, err := o.Query(ctx, rng.Intn(g.N()), rng.Intn(g.N())); err != nil {
					t.Error(err)
				}
			}
			if _, err := o.QueryMany(ctx, ZipfWorkload(g.N(), 64, 1.1, uint64(w)+5)); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()

	st := o.Stats()
	snap := reg.Snapshot()
	if v, _ := snap.Counter("oracle_row_hits_total"); v != st.Hits {
		t.Fatalf("hits: registry %d, Stats %d", v, st.Hits)
	}
	if v, _ := snap.Counter("oracle_row_misses_total"); v != st.Misses {
		t.Fatalf("misses: registry %d, Stats %d", v, st.Misses)
	}
	if v, _ := snap.Counter("oracle_row_evictions_total"); v != st.Evictions {
		t.Fatalf("evictions: registry %d, Stats %d", v, st.Evictions)
	}
	if v, _ := snap.Gauge("oracle_rows_resident"); v != int64(st.Resident) {
		t.Fatalf("resident: registry %d, Stats %d", v, st.Resident)
	}
	if st.Resident != st.Misses-st.PointFills-st.Evictions {
		t.Fatalf("books don't close: resident %d != misses %d - point fills %d - evictions %d",
			st.Resident, st.Misses, st.PointFills, st.Evictions)
	}
	// row() times every acquisition that reaches it; QueryMany's resident
	// fast-pass answers from peek without a row() call, so only the
	// scheduling-independent lower bound (every miss goes through row) is
	// stable here.
	if h := snap.Histogram("oracle_row_seconds"); h == nil || int64(h.Count) < st.Misses {
		t.Fatalf("oracle_row_seconds count %+v, want at least the %d misses", h, st.Misses)
	}
}

// TestQueueWaitAccounting pins the PR 7 serving-daemon contract: when two
// goroutines race on the same cold source, the loser's singleflight wait is
// accounted in oracle_queue_wait_seconds — the internal queue-delay series a
// daemon sizes its admission ceiling against. Uninstrumented oracles must
// not register the series at all (the wait path stays clock-free).
func TestQueueWaitAccounting(t *testing.T) {
	g := testGraph(t, 200, 29)
	reg := obs.NewRegistry()
	o := New(g, Options{shards: 1, MaxRows: 8, Metrics: reg})

	const racers = 8
	var start, wg sync.WaitGroup
	start.Add(1)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			// Same cold source: one computes, the rest wait.
			if _, err := o.Query(context.Background(), 5, 17); err != nil {
				t.Error(err)
			}
		}()
	}
	start.Done()
	wg.Wait()

	h := reg.Snapshot().Histogram("oracle_queue_wait_seconds")
	if h == nil {
		t.Fatal("oracle_queue_wait_seconds not registered on an instrumented oracle")
	}
	st := o.Stats()
	if st.Misses != 1 {
		t.Fatalf("singleflight broken: %d misses for one source, want 1", st.Misses)
	}
	// Every racer that found the fill in flight waited; racers that arrived
	// after publication hit the resident row without queuing. Both schedules
	// are legal, so only the ceiling is stable.
	if h.Count > racers-1 {
		t.Fatalf("queue waits %d observed, at most %d racers can wait", h.Count, racers-1)
	}

	plain := New(g, Options{MaxRows: 8})
	mustQuery(t, plain, 5, 17)
	if plain.queueWaitSeconds != nil {
		t.Fatal("uninstrumented oracle must keep the queue-wait path clock-free")
	}
}

// TestMaxRows pins the budget a serving daemon derives its admission ceiling
// from: MaxRows reports the effective post-default, post-clamp budget, and
// the shard capacities sum to exactly it. The default is 1024 rows up to
// n = 8 192 and a 64 MiB ceiling above.
func TestMaxRows(t *testing.T) {
	g := testGraph(t, 50, 31)
	long := graph.Path(10_000, graph.UnitWeight, 1)
	for _, tc := range []struct {
		g    *graph.Graph
		opt  Options
		want int
	}{
		{g, Options{MaxRows: 37, shards: 4}, 37},
		{g, Options{MaxRows: -9}, 1}, // clamped
		{g, Options{}, 1024},         // default
		{g, Options{MaxRows: 3, shards: 16}, 3},
		{long, Options{}, 838}, // default: 64 MiB / (8·10 000) rows
		{long, Options{MaxRows: 4096}, 4096},
	} {
		if got := New(tc.g, tc.opt).MaxRows(); got != tc.want {
			t.Errorf("n=%d: MaxRows with %+v = %d, want %d", tc.g.N(), tc.opt, got, tc.want)
		}
	}
	// The default rule itself, at sizes too large to build here.
	for _, tc := range []struct{ n, want int }{
		{0, 1024}, {8_192, 1024}, {8_193, 1023}, {40_000, 209}, {1_000_000, 8},
	} {
		if got := defaultMaxRows(tc.n); got != tc.want {
			t.Errorf("defaultMaxRows(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestInstrumentedWarmPathAllocs is the hot-path guard for the serving
// layer: with a live registry attached, a warm single query allocates
// nothing, and a warm QueryMany batch allocates exactly as much as the
// uninstrumented batch path (its output slice and source grouping) — the
// instrumentation itself adds zero. The grouping is a sort of one key slice,
// so a warm batch allocates at most 3 objects whatever its source count.
func TestInstrumentedWarmPathAllocs(t *testing.T) {
	g := testGraph(t, 100, 23)
	pairs := []Pair{{U: 3, V: 9}, {U: 3, V: 50}, {U: 7, V: 1}, {U: 7, V: 99}}

	plain := New(g, Options{Workers: 1})
	instr := New(g, Options{Workers: 1, Metrics: obs.NewRegistry()})
	for _, o := range []*Oracle{plain, instr} {
		mustQueryMany(t, o, pairs) // warm every source
	}

	ctx := context.Background()
	if allocs := testing.AllocsPerRun(20, func() { instr.Query(ctx, 3, 42) }); allocs > 0 {
		t.Errorf("instrumented warm Query allocated %.1f objects/op, want 0", allocs)
	}

	base := testing.AllocsPerRun(20, func() { plain.QueryMany(ctx, pairs) })
	got := testing.AllocsPerRun(20, func() { instr.QueryMany(ctx, pairs) })
	if got > base {
		t.Errorf("instrumented warm QueryMany allocates %.1f objects/op, uninstrumented %.1f — instrumentation must add zero", got, base)
	}

	var many []Pair // 50 distinct sources, two pairs each
	for u := 0; u < 50; u++ {
		many = append(many, Pair{U: u, V: 99 - u}, Pair{U: u, V: u})
	}
	mustQueryMany(t, plain, many)
	for _, batch := range [][]Pair{pairs, many} {
		if allocs := testing.AllocsPerRun(20, func() { plain.QueryMany(ctx, batch) }); allocs > 3 {
			t.Errorf("warm QueryMany over %d pairs allocates %.1f objects/op, want at most 3", len(batch), allocs)
		}
	}
}
