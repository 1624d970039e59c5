package mpcspanner

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestWithMetricsBitIdentity pins the observability contract: metrics watch
// the computation without steering it. For the engine and MPC families, a
// build with no metrics option, with WithMetrics(nil), and with a live
// registry must produce bit-identical results.
func TestWithMetricsBitIdentity(t *testing.T) {
	g := testGraphSmall()
	ctx := context.Background()

	base, err := Build(ctx, g, WithK(6), WithSeed(21), WithMeasureRadius())
	if err != nil {
		t.Fatal(err)
	}
	nilOpt, err := Build(ctx, g, WithK(6), WithSeed(21), WithMeasureRadius(), WithMetrics(nil))
	if err != nil {
		t.Fatal(err)
	}
	live, err := Build(ctx, g, WithK(6), WithSeed(21), WithMeasureRadius(),
		WithMetrics(NewMetrics()), WithTracer(NewTracer()))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*BuildResult{"WithMetrics(nil)": nilOpt, "instrumented": live} {
		if !reflect.DeepEqual(base.EdgeIDs, r.EdgeIDs) || !reflect.DeepEqual(base.Stats, r.Stats) {
			t.Fatalf("%s build differs from the uninstrumented build", name)
		}
	}

	baseM, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(6), WithT(2), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	liveM, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(6), WithT(2), WithSeed(21),
		WithMetrics(NewMetrics()), WithTracer(NewTracer()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseM.MPC, liveM.MPC) {
		t.Fatal("instrumented MPC build differs from the uninstrumented build")
	}

	baseC, err := Build(ctx, g, WithAlgorithm(AlgoCongestedClique), WithK(6), WithT(2), WithSeed(21))
	if err != nil {
		t.Fatal(err)
	}
	liveC, err := Build(ctx, g, WithAlgorithm(AlgoCongestedClique), WithK(6), WithT(2), WithSeed(21),
		WithMetrics(NewMetrics()), WithTracer(NewTracer()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseC.EdgeIDs, liveC.EdgeIDs) || !reflect.DeepEqual(baseC.Stats, liveC.Stats) ||
		!reflect.DeepEqual(baseC.CC, liveC.CC) {
		t.Fatal("instrumented clique build differs from the uninstrumented build")
	}
}

// TestWithMetricsSeries checks that one shared registry accumulates the
// paper-native series of every instrumented layer: spanner_* from the local
// engine, mpc_* from the simulated cluster, par_* from the worker pool, and
// oracle_* from a serving session. A clique build on a registry of its own
// records the engine's spanner_* series too.
func TestWithMetricsSeries(t *testing.T) {
	g := testGraphSmall()
	ctx := context.Background()
	reg := NewMetrics()

	if _, err := Build(ctx, g, WithK(6), WithSeed(21), WithWorkers(4), WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(6), WithT(2), WithSeed(21),
		WithMetrics(reg)); err != nil {
		t.Fatal(err)
	}
	s, err := Serve(ctx, g, WithSeed(11), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryMany(ctx, []Pair{{U: 0, V: 1}, {U: 2, V: 3}, {U: 0, V: 5}}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	for _, c := range []string{"spanner_grow_iterations_total", "mpc_rounds_total",
		"mpc_sorts_total", "oracle_row_misses_total", "par_parallel_dispatch_total"} {
		v, ok := snap.Counter(c)
		if !ok {
			t.Fatalf("counter %s missing from snapshot", c)
		}
		if c != "par_parallel_dispatch_total" && v <= 0 {
			t.Fatalf("counter %s = %d, want > 0", c, v)
		}
	}
	if v, ok := snap.Gauge("mpc_peak_machine_load_tuples"); !ok || v <= 0 {
		t.Fatalf("mpc_peak_machine_load_tuples = (%d, %v), want a positive peak", v, ok)
	}
	for _, h := range []string{"mpc_round_tuples", "mpc_shuffle_bytes",
		"spanner_iteration_seconds", "oracle_batch_seconds", "oracle_row_seconds"} {
		hs := snap.Histogram(h)
		if hs == nil || hs.Count == 0 {
			t.Fatalf("histogram %s missing or empty", h)
		}
	}

	// The Prometheus encoding carries the same series end to end.
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE mpc_round_tuples histogram",
		"mpc_peak_machine_load_tuples", `oracle_batch_seconds_bucket{le="+Inf"}`} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("Prometheus exposition misses %q", want)
		}
	}

	// Session counters and the registry tell one story.
	stats := s.Stats()
	if v, _ := snap.Counter("oracle_row_misses_total"); v != stats.Misses {
		t.Fatalf("oracle_row_misses_total = %d, Session.Stats().Misses = %d", v, stats.Misses)
	}

	regC := NewMetrics()
	if _, err := Build(ctx, g, WithAlgorithm(AlgoCongestedClique), WithK(6), WithT(2), WithSeed(21),
		WithMetrics(regC)); err != nil {
		t.Fatal(err)
	}
	if v, ok := regC.Snapshot().Counter("spanner_grow_iterations_total"); !ok || v <= 0 {
		t.Fatalf("clique build spanner_grow_iterations_total = (%d, %v), want > 0", v, ok)
	}
}

// TestWithTracerSpans checks both tracing modes: native engine spans with
// real durations for the local families and the clique build, and
// checkpoint marker spans mirrored from progress events on the MPC plane.
func TestWithTracerSpans(t *testing.T) {
	g := testGraphSmall()
	ctx := context.Background()

	tr := NewTracer()
	if _, err := Build(ctx, g, WithK(6), WithSeed(21), WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sum := range tr.Summary() {
		names[sum.Name] = true
	}
	for _, want := range []string{"spanner.b1-coins", "spanner.grow",
		"spanner.removal-sweep", "spanner.phase2"} {
		if !names[want] {
			t.Fatalf("engine trace misses span %q (got %v)", want, names)
		}
	}

	trM := NewTracer()
	events := 0
	if _, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(6), WithT(2), WithSeed(21),
		WithTracer(trM), WithProgress(func(ProgressEvent) { events++ })); err != nil {
		t.Fatal(err)
	}
	spans := trM.Spans()
	if len(spans) != events {
		t.Fatalf("MPC bridge recorded %d spans for %d progress events", len(spans), events)
	}
	for _, sp := range spans {
		if !strings.HasPrefix(sp.Name, "checkpoint.") {
			t.Fatalf("MPC bridge span %q does not carry the checkpoint prefix", sp.Name)
		}
	}

	trC := NewTracer()
	if _, err := Build(ctx, g, WithAlgorithm(AlgoCongestedClique), WithK(6), WithT(2), WithSeed(21),
		WithTracer(trC)); err != nil {
		t.Fatal(err)
	}
	grows := 0
	for _, sum := range trC.Summary() {
		if sum.Name == "spanner.grow" {
			grows = sum.Count
		}
	}
	if grows == 0 {
		t.Fatalf("clique trace records no native spanner.grow spans (got %v)", trC.Summary())
	}
}

// TestObserveOptionRejection pins where the observability options are not
// accepted: the fixed-parameter clique pipeline takes neither, and exact
// serving (no build) takes no tracer — but keeps WithMetrics, which
// instruments the serving oracle.
func TestObserveOptionRejection(t *testing.T) {
	g := testGraphSmall()
	ctx := context.Background()
	if _, err := ApproxAPSPCongestedCliqueCtx(ctx, g, WithMetrics(NewMetrics())); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("clique pipeline WithMetrics = %v, want ErrInvalidOption", err)
	}
	if _, err := ApproxAPSPCongestedCliqueCtx(ctx, g, WithTracer(NewTracer())); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("clique pipeline WithTracer = %v, want ErrInvalidOption", err)
	}
	if _, err := Serve(ctx, g, WithExact(), WithTracer(NewTracer())); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Serve(WithExact, WithTracer) = %v, want ErrInvalidOption", err)
	}
	reg := NewMetrics()
	s, err := Serve(ctx, g, WithExact(), WithMetrics(reg))
	if err != nil {
		t.Fatalf("Serve(WithExact, WithMetrics) = %v, want it accepted", err)
	}
	if _, err := s.Query(ctx, 0, 5); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Snapshot().Counter("oracle_row_misses_total"); !ok || v != 1 {
		t.Fatalf("exact serving miss counter = (%d, %v), want exactly one miss", v, ok)
	}
}
