package mpcspanner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"mpcspanner/internal/apsp"
	"mpcspanner/internal/cclique"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/mpc"
	"mpcspanner/internal/spanner"
)

func testGraphSmall() *Graph {
	return GNP(400, 0.03, UniformWeight(1, 50), 9)
}

// TestBuildMatchesEngines pins Build's dispatch: for every algorithm family
// and worker count, Build produces bit-identical spanners and statistics to
// the internal entry point it dispatches to (whose outputs the
// per-package parallel_test.go pins hold fixed).
func TestBuildMatchesEngines(t *testing.T) {
	g := testGraphSmall()
	unit := GNP(300, 0.04, UnitWeight, 10)
	ctx := context.Background()
	for _, workers := range []int{1, 3, 0} {
		opts := spanner.Options{Seed: 21, Workers: workers, MeasureRadius: true}
		// Engine families; AlgoGeneral's default t is ⌈log₂ 6⌉ = 3.
		engines := map[Algorithm]func() (*spanner.Result, error){
			AlgoGeneral:      func() (*spanner.Result, error) { return spanner.GeneralCtx(ctx, g, 6, 3, opts) },
			AlgoClusterMerge: func() (*spanner.Result, error) { return spanner.ClusterMergeCtx(ctx, g, 6, opts) },
			AlgoSqrtK:        func() (*spanner.Result, error) { return spanner.SqrtKCtx(ctx, g, 6, opts) },
			AlgoBaswanaSen:   func() (*spanner.Result, error) { return spanner.BaswanaSenCtx(ctx, g, 6, opts) },
		}
		for _, algo := range []Algorithm{AlgoGeneral, AlgoClusterMerge, AlgoSqrtK, AlgoBaswanaSen} {
			ref, err := engines[algo]()
			if err != nil {
				t.Fatalf("%s engine: %v", algo, err)
			}
			neu, err := Build(ctx, g, WithAlgorithm(algo), WithK(6), WithSeed(21),
				WithWorkers(workers), WithMeasureRadius())
			if err != nil {
				t.Fatalf("%s Build: %v", algo, err)
			}
			if !reflect.DeepEqual(ref.EdgeIDs, neu.EdgeIDs) || !reflect.DeepEqual(ref.Stats, neu.Stats) {
				t.Fatalf("%s: Build differs from the engine at workers=%d", algo, workers)
			}
		}
		// Repetitions path (default t = ⌈log₂ 5⌉ = 3).
		refR, err := spanner.GeneralCtx(ctx, g, 5, 3, spanner.Options{Seed: 33, Workers: workers, Repetitions: 3})
		if err != nil {
			t.Fatal(err)
		}
		neuR, err := Build(ctx, g, WithK(5), WithSeed(33), WithWorkers(workers), WithRepetitions(3))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refR.EdgeIDs, neuR.EdgeIDs) || refR.Stats.Repetition != neuR.Stats.Repetition {
			t.Fatalf("repetitions: Build differs from the engine at workers=%d", workers)
		}
		// MPC plane.
		refM, err := mpc.BuildSpannerCtx(ctx, g, 6, 2, 21, mpc.Options{Gamma: 0.5, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		neuM, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(6), WithT(2), WithSeed(21),
			WithGamma(0.5), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refM, neuM.MPC) {
			t.Fatalf("mpc: Build differs from the MPC driver at workers=%d", workers)
		}
		// Congested Clique.
		refC, err := cclique.BuildSpannerCtx(ctx, g, 6, 2, spanner.Options{Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		neuC, err := Build(ctx, g, WithAlgorithm(AlgoCongestedClique), WithK(6), WithT(2),
			WithSeed(21), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refC, neuC.CC) {
			t.Fatalf("congested-clique: Build differs from the clique driver at workers=%d", workers)
		}
		// Unweighted (Appendix B).
		refU, err := spanner.UnweightedCtx(ctx, unit, 3, spanner.UnweightedOptions{Seed: 21, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		neuU, err := Build(ctx, unit, WithAlgorithm(AlgoUnweighted), WithK(3), WithSeed(21),
			WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refU.EdgeIDs, neuU.EdgeIDs) || !reflect.DeepEqual(refU.Stats, *neuU.Unweighted) {
			t.Fatalf("unweighted: Build differs from the engine at workers=%d", workers)
		}
	}
}

// TestBuildOptionValidation exercises the typed error taxonomy: every
// rejected option classifies as ErrInvalidOption and carries a structured
// *OptionError naming the field.
func TestBuildOptionValidation(t *testing.T) {
	g := testGraphSmall()
	ctx := context.Background()
	cases := []struct {
		name  string
		opts  []Option
		field string
	}{
		{"missing K", nil, "K"},
		{"bad K", []Option{WithK(-2)}, "K"},
		{"negative workers", []Option{WithK(4), WithWorkers(-1)}, "Workers"},
		{"negative T", []Option{WithK(4), WithT(-3)}, "T"},
		{"bad gamma", []Option{WithK(4), WithGamma(1.5)}, "Gamma"},
		{"unweighted gamma 1", []Option{WithK(4), WithAlgorithm(AlgoUnweighted), WithGamma(1)}, "Gamma"},
		{"negative repetitions", []Option{WithK(4), WithRepetitions(-1)}, "Repetitions"},
		{"unknown algorithm", []Option{WithK(4), WithAlgorithm("bogus")}, "Algorithm"},
		{"reps on mpc", []Option{WithK(4), WithAlgorithm(AlgoMPC), WithRepetitions(2)}, "Repetitions"},
		{"radius on mpc", []Option{WithK(4), WithAlgorithm(AlgoMPC), WithMeasureRadius()}, "MeasureRadius"},
		{"serve-only option", []Option{WithK(4), WithExact()}, "Exact"},
		{"zero memory budget", []Option{WithK(4), WithAlgorithm(AlgoMPC), WithMemoryBudget(0)}, "MemoryBudget"},
		{"negative memory budget", []Option{WithK(4), WithAlgorithm(AlgoMPC), WithMemoryBudget(-1)}, "MemoryBudget"},
		{"memory budget off the MPC plane", []Option{WithK(4), WithMemoryBudget(1 << 20)}, "MemoryBudget"},
	}
	for _, tc := range cases {
		_, err := Build(ctx, g, tc.opts...)
		if err == nil {
			t.Fatalf("%s: expected an error", tc.name)
		}
		if !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("%s: error %v does not classify as ErrInvalidOption", tc.name, err)
		}
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%s: error %v carries no *OptionError", tc.name, err)
		}
		if want := "mpcspanner: " + tc.field; oe.Field != want && oe.Field != tc.field {
			t.Fatalf("%s: OptionError names field %q, want %q", tc.name, oe.Field, want)
		}
	}
}

// TestUnweightedFacadeWorkersValidation pins the facade-level worker check
// for the Appendix B family: a negative Workers is rejected as
// ErrInvalidOption before the graph is inspected, even when the graph would
// fail the unit-weight requirement.
func TestUnweightedFacadeWorkersValidation(t *testing.T) {
	weighted := testGraphSmall() // not unit-weight
	_, err := Build(context.Background(), weighted, WithAlgorithm(AlgoUnweighted), WithK(3), WithWorkers(-1))
	if !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Build(unweighted, Workers=-1) = %v, want ErrInvalidOption", err)
	}
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "mpcspanner: Workers" {
		t.Fatalf("workers rejection reports field %+v, want the facade-level Workers check", oe)
	}
}

// TestDegenerateGraphSizesTyped pins that the graph sizes the clique and
// APSP pipelines cannot run on are rejected like every other argument: as an
// ErrInvalidOption-classified *OptionError naming the rejecting layer's
// graph and carrying the vertex count.
func TestDegenerateGraphSizesTyped(t *testing.T) {
	ctx := context.Background()
	empty, err := NewGraph(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewGraph(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name  string
		run   func() error
		field string
		n     int
	}{
		{"Build(congested-clique, n=0)", func() error {
			_, err := Build(ctx, empty, WithAlgorithm(AlgoCongestedClique), WithK(2))
			return err
		}, "cclique: graph", 0},
		{"ApproxAPSPCongestedCliqueCtx(n=0)", func() error {
			_, err := ApproxAPSPCongestedCliqueCtx(ctx, empty)
			return err
		}, "cclique: graph", 0},
		{"Serve(n=1)", func() error {
			_, err := Serve(ctx, single)
			return err
		}, "apsp: graph", 1},
	}
	for _, c := range calls {
		err := c.run()
		if !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("%s = %v, want ErrInvalidOption", c.name, err)
		}
		var oe *OptionError
		if !errors.As(err, &oe) || oe.Field != c.field || oe.Value != c.n {
			t.Fatalf("%s rejected as %+v, want Field %q, Value %d", c.name, oe, c.field, c.n)
		}
	}
}

// TestBuildCancellation is the acceptance criterion: a canceled context
// returns an error satisfying errors.Is(err, context.Canceled) — and the
// package sentinel ErrCanceled — from every algorithm family.
func TestBuildCancellation(t *testing.T) {
	g := testGraphSmall()
	unit := GNP(300, 0.04, UnitWeight, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	families := map[Algorithm]*Graph{
		AlgoGeneral:         g,
		AlgoClusterMerge:    g,
		AlgoSqrtK:           g,
		AlgoBaswanaSen:      g,
		AlgoUnweighted:      unit,
		AlgoMPC:             g,
		AlgoCongestedClique: g,
	}
	for algo, gr := range families {
		_, err := Build(ctx, gr, WithAlgorithm(algo), WithK(4), WithSeed(7))
		if err == nil {
			t.Fatalf("%s: canceled context returned no error", algo)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v does not classify as context.Canceled", algo, err)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: error %v does not classify as ErrCanceled", algo, err)
		}
	}
}

// TestBuildCancelMidRun cancels from inside the progress callback — the
// checkpoint structure guarantees the loop notices at the next iteration —
// and checks no goroutines outlive the canceled build.
func TestBuildCancelMidRun(t *testing.T) {
	g := GNP(1200, 0.02, UniformWeight(1, 80), 5)
	before := runtime.NumGoroutine()
	for _, algo := range []Algorithm{AlgoGeneral, AlgoMPC, AlgoCongestedClique} {
		ctx, cancel := context.WithCancel(context.Background())
		events := 0
		_, err := Build(ctx, g, WithAlgorithm(algo), WithK(8), WithSeed(3), WithWorkers(4),
			WithProgress(func(ev ProgressEvent) {
				events++
				cancel()
			}))
		cancel()
		if err == nil {
			t.Fatalf("%s: mid-run cancel returned no error", algo)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: mid-run cancel error %v is not ErrCanceled", algo, err)
		}
		if events == 0 {
			t.Fatalf("%s: no progress event fired before cancellation", algo)
		}
	}
	// Goroutine hygiene: allow the runtime a moment to retire pool workers.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after canceled builds", before, runtime.NumGoroutine())
}

// TestServeSession exercises the serving half: exact sessions answer real
// distances, approx sessions honor the certified bound machinery, batches
// are deterministic, and cancellation classifies correctly.
func TestServeSession(t *testing.T) {
	ctx := context.Background()
	g := testGraphSmall()

	s, err := Serve(ctx, g, WithExact(), WithCacheRows(8))
	if err != nil {
		t.Fatal(err)
	}
	if s.APSP() != nil {
		t.Fatal("exact session should carry no APSP result")
	}
	if s.Served() != g {
		t.Fatal("exact session must serve the input graph")
	}
	row, err := s.Row(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := s.Query(ctx, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d != row[5] {
		t.Fatalf("Query(0,5) = %v, want row value %v", d, row[5])
	}
	batch, err := s.QueryMany(ctx, []Pair{{U: 0, V: 1}, {U: 2, V: 3}, {U: 0, V: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if batch[2] != d {
		t.Fatalf("QueryMany disagrees with Query: %v vs %v", batch[2], d)
	}
	if _, err := s.Query(ctx, -1, 0); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("bad vertex error %v, want ErrInvalidOption", err)
	}
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.QueryMany(canceled, []Pair{{U: 7, V: 8}}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled batch error %v, want ErrCanceled", err)
	}

	// Approx mode wraps the Corollary 1.4 pipeline and matches apsp.ApproxCtx.
	sa, err := Serve(ctx, g, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := apsp.ApproxCtx(ctx, g, apsp.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if sa.APSP() == nil || !reflect.DeepEqual(sa.APSP().SpannerEdgeIDs, ref.SpannerEdgeIDs) {
		t.Fatal("approx session spanner differs from apsp.ApproxCtx")
	}
	if got, err := sa.Query(ctx, 0, 9); err != nil || got != dist.Dijkstra(ref.Spanner(), 0)[9] {
		t.Fatalf("approx session query = (%v, %v), want the pipeline's distance", got, err)
	}
	// Serve rejects build-only options and malformed cache sizing.
	if _, err := Serve(ctx, g, WithK(4)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Serve(WithK) = %v, want ErrInvalidOption", err)
	}
	if _, err := Serve(ctx, g, WithExact(), WithCacheRows(-1)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Serve(WithCacheRows(-1)) = %v, want ErrInvalidOption", err)
	}
	// The clique APSP pipeline rejects structural options it cannot honor.
	if _, err := ApproxAPSPCongestedCliqueCtx(ctx, g, WithK(4)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("ApproxAPSPCongestedCliqueCtx(WithK) = %v, want ErrInvalidOption", err)
	}
	// Exact mode runs no pipeline, so pipeline-only options are rejected.
	if _, err := Serve(ctx, g, WithExact(), WithSeed(3)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Serve(WithExact, WithSeed) = %v, want ErrInvalidOption", err)
	}
	// Every mode sizes its default cache by one rule: above n = 8 192 an
	// approx and an exact session over one graph both hold 64 MiB of rows.
	big := Cycle(10_000, UnitWeight, 13)
	want := (64 << 20) / (8 * big.N())
	for _, opts := range [][]Option{{WithSeed(13)}, {WithExact()}} {
		bs, err := Serve(ctx, big, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if got := bs.CacheRows(); got != want {
			t.Fatalf("default CacheRows (approx=%v) = %d, want %d", bs.APSP() != nil, got, want)
		}
	}
}

// TestMemoryBudgetFacade pins the out-of-core surface at the facade: a
// budgeted MPC Build really spills, reports its profile on Result.MPC, and
// selects the identical spanner; planes that never run an MPC build reject
// the option with the usual typed taxonomy.
func TestMemoryBudgetFacade(t *testing.T) {
	g := testGraphSmall()
	ctx := context.Background()
	ref, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(4), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(4), WithSeed(21),
		WithMemoryBudget(32<<10))
	if err != nil {
		t.Fatal(err)
	}
	if got.MPC.MemoryBudget != 32<<10 || got.MPC.SpilledBytes <= 0 || got.MPC.SpillRuns <= 0 {
		t.Fatalf("budgeted build reported no spill profile: %+v", got.MPC)
	}
	if ref.MPC.MemoryBudget != 0 || ref.MPC.SpilledBytes != 0 {
		t.Fatalf("resident build reports a spill profile: %+v", ref.MPC)
	}
	if !reflect.DeepEqual(got.EdgeIDs, ref.EdgeIDs) {
		t.Fatal("budgeted build selected a different spanner than the resident build")
	}
	if _, err := Serve(ctx, g, WithExact(), WithMemoryBudget(1<<20)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Serve(WithExact, WithMemoryBudget) = %v, want ErrInvalidOption", err)
	}
	var oe *OptionError
	if _, err := Serve(ctx, g, WithExact(), WithMemoryBudget(1<<20)); !errors.As(err, &oe) || oe.Field != "mpcspanner: MemoryBudget" {
		t.Fatalf("Serve rejection names field %+v, want MemoryBudget", oe)
	}
}
