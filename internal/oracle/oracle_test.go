package oracle

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mpcspanner/internal/core"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/xrand"
)

// testGraph is a connected random graph small enough to materialize the full
// APSP ground truth against.
func testGraph(t testing.TB, n int, seed uint64) *graph.Graph {
	t.Helper()
	g := graph.Connectify(graph.GNP(n, 6/float64(n), graph.UniformWeight(1, 10), seed), 5)
	if !g.Connected() {
		t.Fatal("test graph not connected")
	}
	return g
}

// mustQuery, mustRow and mustQueryMany call the oracle under a live context
// and fail the test on any error. Goroutines call the oracle directly, since
// only the test goroutine may stop the test.
func mustQuery(t testing.TB, o *Oracle, u, v int) float64 {
	t.Helper()
	d, err := o.Query(context.Background(), u, v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustRow(t testing.TB, o *Oracle, src int) []float64 {
	t.Helper()
	r, err := o.Row(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func mustQueryMany(t testing.TB, o *Oracle, pairs []Pair) []float64 {
	t.Helper()
	out, err := o.QueryMany(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestQueryMatchesAPSP checks Query, Row, and QueryMany against the
// dist.APSP ground-truth matrix.
func TestQueryMatchesAPSP(t *testing.T) {
	g := testGraph(t, 120, 7)
	truth := dist.APSP(g)
	o := New(g, Options{})

	var pairs []Pair
	rng := xrand.New(99)
	for i := 0; i < 500; i++ {
		pairs = append(pairs, Pair{U: rng.Intn(g.N()), V: rng.Intn(g.N())})
	}
	for _, p := range pairs {
		if got := mustQuery(t, o, p.U, p.V); got != truth[p.U][p.V] {
			t.Fatalf("Query(%d,%d) = %v, want %v", p.U, p.V, got, truth[p.U][p.V])
		}
	}
	got := mustQueryMany(t, o, pairs)
	for i, p := range pairs {
		if got[i] != truth[p.U][p.V] {
			t.Fatalf("QueryMany[%d] (%d,%d) = %v, want %v", i, p.U, p.V, got[i], truth[p.U][p.V])
		}
	}
	for _, src := range []int{0, 5, g.N() - 1} {
		row := mustRow(t, o, src)
		for v, d := range row {
			if d != truth[src][v] {
				t.Fatalf("Row(%d)[%d] = %v, want %v", src, v, d, truth[src][v])
			}
		}
	}
}

// TestStatsAccounting pins the counting rule: Hits+Misses counts row
// acquisitions, Misses counts row fills.
func TestStatsAccounting(t *testing.T) {
	g := testGraph(t, 60, 3)
	o := New(g, Options{})

	mustQuery(t, o, 4, 10) // miss: first touch of source 4
	mustQuery(t, o, 4, 20) // hit: row resident
	mustQuery(t, o, 4, 4)  // hit
	s := o.Stats()
	if s.Misses != 1 || s.Hits != 2 || s.Resident != 1 || s.Evictions != 0 {
		t.Fatalf("after 3 point queries: %+v, want {Hits:2 Misses:1 Evictions:0 Resident:1}", s)
	}

	// A batch with 3 distinct sources, one of them (4) resident: one hit for
	// the resident source, two misses for the fresh ones — per source, not
	// per pair.
	mustQueryMany(t, o, []Pair{{4, 1}, {4, 2}, {7, 1}, {7, 2}, {9, 0}})
	s = o.Stats()
	if s.Misses != 3 || s.Hits != 3 || s.Resident != 3 {
		t.Fatalf("after batch: %+v, want {Hits:3 Misses:3 Resident:3}", s)
	}
}

// TestLRUEviction drives a tiny budget and checks capacity, eviction counts,
// and that recency (not insertion order) picks the victim.
func TestLRUEviction(t *testing.T) {
	g := testGraph(t, 40, 5)
	// One shard so the LRU order is global and the test is exact.
	o := New(g, Options{shards: 1, MaxRows: 2})

	mustQuery(t, o, 0, 1) // resident: {0}
	mustQuery(t, o, 1, 1) // resident: {1, 0}
	mustQuery(t, o, 0, 2) // hit; refreshes 0 → resident: {0, 1}
	mustQuery(t, o, 2, 1) // evicts 1 (LRU), not 0 → resident: {2, 0}

	s := o.Stats()
	if s.Resident != 2 {
		t.Fatalf("Resident = %d, want 2", s.Resident)
	}
	if s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
	if s.Misses != 3 {
		t.Fatalf("Misses = %d, want 3", s.Misses)
	}

	// Source 0 must still be resident (hit), source 1 must have been evicted
	// (miss + a second eviction to make room).
	mustQuery(t, o, 0, 3)
	if got := o.Stats(); got.Hits != s.Hits+1 {
		t.Fatalf("source 0 was evicted; stats %+v", got)
	}
	mustQuery(t, o, 1, 3)
	if got := o.Stats(); got.Misses != s.Misses+1 || got.Evictions != 2 {
		t.Fatalf("source 1 should re-miss and evict: %+v", got)
	}
}

// TestTinyBudgetShardClamp checks that a budget smaller than the shard count
// still leaves every shard able to hold a row.
func TestTinyBudgetShardClamp(t *testing.T) {
	g := testGraph(t, 30, 11)
	o := New(g, Options{shards: 16, MaxRows: 1})
	if len(o.shards) != 1 {
		t.Fatalf("shards = %d, want clamp to 1", len(o.shards))
	}
	truth := dist.APSP(g)
	for v := 0; v < g.N(); v++ {
		if got := mustQuery(t, o, v, 0); got != truth[v][0] {
			t.Fatalf("Query(%d,0) = %v, want %v", v, got, truth[v][0])
		}
	}
	s := o.Stats()
	if s.Resident != 1 {
		t.Fatalf("Resident = %d, want 1", s.Resident)
	}
	if s.Evictions != int64(g.N()-1) {
		t.Fatalf("Evictions = %d, want %d", s.Evictions, g.N()-1)
	}
}

// TestDefaultWorkersFollowGOMAXPROCS pins the rule Options.Workers documents:
// zero sizes the QueryMany pool by GOMAXPROCS, not by the machine's cores.
// Not parallel: it changes the process-wide GOMAXPROCS.
func TestDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := New(testGraph(t, 30, 13), Options{})
	if o.workers != 1 {
		t.Fatalf("pool size = %d under GOMAXPROCS(1), want 1", o.workers)
	}
}

// TestQueryManyDeterministicConcurrent hammers one oracle with concurrent
// batches (run under -race in CI): every caller must get the bit-identical,
// ground-truth answer regardless of cache churn.
func TestQueryManyDeterministicConcurrent(t *testing.T) {
	g := testGraph(t, 100, 13)
	truth := dist.APSP(g)
	// Small budget so eviction races with the fan-out.
	o := New(g, Options{shards: 4, MaxRows: 8, Workers: 4})

	var pairs []Pair
	rng := xrand.New(21)
	for i := 0; i < 400; i++ {
		pairs = append(pairs, Pair{U: rng.Intn(g.N()), V: rng.Intn(g.N())})
	}
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = truth[p.U][p.V]
	}

	const callers = 8
	var wg sync.WaitGroup
	results := make([][]float64, callers)
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			// Interleave point queries to churn the LRU during batches.
			if _, err := o.Query(context.Background(), c, (c+1)%g.N()); err != nil {
				t.Error(err)
			}
			var err error
			if results[c], err = o.QueryMany(context.Background(), pairs); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	for c, got := range results {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("caller %d: result[%d] = %v, want %v", c, i, got[i], want[i])
			}
		}
	}
	// Under the tiny budget sources evict and re-miss, so the miss count is
	// workload-dependent — but the budget itself must hold.
	if s := o.Stats(); s.Resident > 8 {
		t.Fatalf("Resident = %d exceeds the 8-row budget", s.Resident)
	}
}

// TestSingleflightSharesComputation checks that concurrent misses on one
// source all return the same row and that hits+misses balance.
func TestSingleflightSharesComputation(t *testing.T) {
	g := testGraph(t, 200, 17)
	o := New(g, Options{})
	const callers = 16
	var wg sync.WaitGroup
	rows := make([][]float64, callers)
	start := make(chan struct{})
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func(c int) {
			defer wg.Done()
			<-start
			var err error
			if rows[c], err = o.Row(context.Background(), 42); err != nil {
				t.Error(err)
			}
		}(c)
	}
	close(start)
	wg.Wait()
	for c := 1; c < callers; c++ {
		for v := range rows[c] {
			if rows[c][v] != rows[0][v] {
				t.Fatalf("caller %d row diverges at %d", c, v)
			}
		}
	}
	s := o.Stats()
	if s.Hits+s.Misses != callers {
		t.Fatalf("Hits(%d)+Misses(%d) != %d callers", s.Hits, s.Misses, callers)
	}
	if s.Misses < 1 {
		t.Fatalf("expected at least one miss, got %+v", s)
	}
}

// TestBadVertexRejectedCleanly checks that out-of-range queries are
// rejected with a typed *core.OptionError before touching cache state: they
// never fail a worker and never strand a singleflight entry that would
// deadlock later queries on the same source.
func TestBadVertexRejectedCleanly(t *testing.T) {
	g := testGraph(t, 20, 23)
	o := New(g, Options{})
	ctx := context.Background()
	mustReject := func(name string, err error) {
		t.Helper()
		var oe *core.OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%s = %v, want *core.OptionError", name, err)
		}
	}
	_, err := o.Query(ctx, g.N(), 0)
	mustReject("Query bad source", err)
	_, err = o.Query(ctx, 0, -1)
	mustReject("Query bad target", err)
	_, err = o.Row(ctx, -5)
	mustReject("Row bad source", err)
	_, err = o.QueryMany(ctx, []Pair{{U: 0, V: g.N() + 3}})
	mustReject("QueryMany bad pair", err)

	// No state was corrupted: the same sources answer normally, promptly.
	if d := mustQuery(t, o, 0, 0); d != 0 {
		t.Fatalf("Query(0,0) = %v after rejected queries", d)
	}
	if got := mustQueryMany(t, o, []Pair{{U: 0, V: 1}}); got[0] != dist.Dijkstra(g, 0)[1] {
		t.Fatalf("QueryMany wrong after rejected queries: %v", got)
	}
	if s := o.Stats(); s.Misses != 1 {
		t.Fatalf("rejected queries must not touch counters: %+v", s)
	}
}

// TestRowSurvivesEviction checks that an evicted row stays valid for holders.
func TestRowSurvivesEviction(t *testing.T) {
	g := testGraph(t, 30, 19)
	o := New(g, Options{shards: 1, MaxRows: 1})
	row0 := mustRow(t, o, 0)
	want := append([]float64(nil), row0...)
	mustRow(t, o, 1) // evicts source 0
	for v := range row0 {
		if row0[v] != want[v] {
			t.Fatalf("held row mutated at %d after eviction", v)
		}
	}
}

// TestZipfOnePairAdmission drives one-pair Zipf traffic through a cache far
// smaller than the source set, the regime the admission rule is for: one-time
// sources get point fills, repeat sources earn rows. The hit count must not
// fall below what plain LRU scores on this workload (12 682), and every
// answer must equal the full row's entry.
func TestZipfOnePairAdmission(t *testing.T) {
	g := benchGraph(t)
	pairs := ZipfWorkload(g.N(), 20_000, 1.2, 3)
	o := New(g, Options{MaxRows: 64})
	got := make([]float64, len(pairs))
	for i, p := range pairs {
		got[i] = mustQueryMany(t, o, []Pair{p})[0]
	}
	st := o.Stats()
	if st.Hits < 12_682 {
		t.Errorf("hits %d, want at least plain LRU's 12 682 (%+v)", st.Hits, st)
	}
	if st.PointFills == 0 || st.Resident != st.Misses-st.PointFills-st.Evictions {
		t.Errorf("stats %+v: want point fills and closed books", st)
	}
	// Check every answer against the full row, one row per distinct source.
	order := make([]int, len(pairs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return pairs[a].U - pairs[b].U })
	s := dist.NewSolver(g, dist.SolverOptions{})
	var row []float64
	for j, i := range order {
		if j == 0 || pairs[i].U != pairs[order[j-1]].U {
			row = s.RowInto(pairs[i].U, row)
		}
		if got[i] != row[pairs[i].V] {
			t.Fatalf("pair %d (%d,%d): %v, full row says %v", i, pairs[i].U, pairs[i].V, got[i], row[pairs[i].V])
		}
	}
}
