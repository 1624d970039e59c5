package spanner

import (
	"context"
	"reflect"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
)

func TestGeneralWHPValidSpanner(t *testing.T) {
	g := graph.GNP(400, 0.05, graph.UniformWeight(1, 30), 1)
	res, whp, err := GeneralWHPCtx(context.Background(), g, 8, 2, 0, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(g, res, StretchBound(8, 2)); err != nil {
		t.Fatal(err)
	}
	if whp.Runs < 2 {
		t.Fatalf("default runs %d too small", whp.Runs)
	}
	if len(whp.Choices) != res.Stats.Iterations {
		t.Fatalf("%d choices for %d iterations", len(whp.Choices), res.Stats.Iterations)
	}
	if float64(res.Size()) > SizeBoundWHP(g.N(), 8, 2) {
		t.Fatalf("size %d exceeds whp budget %.0f", res.Size(), SizeBoundWHP(g.N(), 8, 2))
	}
}

func TestGeneralWHPMostIterationsGood(t *testing.T) {
	// On benign random inputs the two-event criterion should settle almost
	// every iteration without the fallback.
	g := graph.GNP(600, 0.04, graph.UnitWeight, 5)
	_, whp, err := GeneralWHPCtx(context.Background(), g, 16, 2, 0, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if whp.GoodCount < len(whp.Choices)-1 {
		t.Fatalf("only %d/%d iterations good", whp.GoodCount, len(whp.Choices))
	}
	for _, ch := range whp.Choices {
		if ch.Active <= 0 {
			t.Fatalf("iteration recorded without live clusters: %+v", ch)
		}
		if ch.Sampled > ch.Active {
			t.Fatalf("sampled more clusters than exist: %+v", ch)
		}
	}
}

func TestGeneralWHPDeterministic(t *testing.T) {
	g := graph.GNP(300, 0.05, graph.UniformWeight(1, 5), 9)
	a, _, err := GeneralWHPCtx(context.Background(), g, 8, 2, 6, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := GeneralWHPCtx(context.Background(), g, 8, 2, 6, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EdgeIDs) != len(b.EdgeIDs) {
		t.Fatal("whp run not deterministic")
	}
	for i := range a.EdgeIDs {
		if a.EdgeIDs[i] != b.EdgeIDs[i] {
			t.Fatal("whp run not deterministic")
		}
	}
}

func TestGeneralWHPSingleRunFallback(t *testing.T) {
	// runs=1 degenerates to "commit whatever the single run did" — still a
	// valid spanner, possibly flagged not-good.
	g := graph.GNP(200, 0.06, graph.UnitWeight, 13)
	res, whp, err := GeneralWHPCtx(context.Background(), g, 4, 1, 1, Options{Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if whp.Runs != 1 {
		t.Fatalf("runs = %d", whp.Runs)
	}
	if _, err := Verify(g, res, StretchBound(4, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralWHPValidates(t *testing.T) {
	g := graph.Path(4, graph.UnitWeight, 1)
	if _, _, err := GeneralWHPCtx(context.Background(), g, 0, 1, 4, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := GeneralWHPCtx(context.Background(), g, 2, 0, 4, Options{}); err == nil {
		t.Fatal("t=0 accepted")
	}
}

func TestGeneralWHPEmptyGraph(t *testing.T) {
	g := graph.MustNew(5, nil)
	res, whp, err := GeneralWHPCtx(context.Background(), g, 4, 2, 0, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Size() != 0 || len(whp.Choices) != 0 {
		t.Fatal("edgeless graph should do nothing")
	}
}

// TestGeneralWHPInstrumented checks that Theorem 8.1 runs carry the engine's
// instrumentation: one spanner.grow span and one grow-iteration increment
// per committed iteration, the per-epoch sampling probabilities, and the
// same spanner as an uninstrumented run.
func TestGeneralWHPInstrumented(t *testing.T) {
	g := graph.GNP(300, 0.05, graph.UniformWeight(1, 20), 19)
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	res, whp, err := GeneralWHPCtx(context.Background(), g, 8, 2, 0, Options{Seed: 23, Tracer: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	iters := res.Stats.Iterations
	if iters == 0 || len(whp.Choices) != iters {
		t.Fatalf("%d iterations, %d choices", iters, len(whp.Choices))
	}
	grows := 0
	for _, sp := range tr.Spans() {
		if sp.Name == "spanner.grow" {
			grows++
		}
	}
	if grows != iters {
		t.Fatalf("%d spanner.grow spans for %d iterations", grows, iters)
	}
	if v, _ := reg.Snapshot().Counter("spanner_grow_iterations_total"); v != int64(iters) {
		t.Fatalf("spanner_grow_iterations_total = %d for %d iterations", v, iters)
	}
	epochs := 0
	for _, ch := range whp.Choices {
		if ch.Iter == 1 {
			epochs++
		}
	}
	if len(res.Stats.Probabilities) != epochs {
		t.Fatalf("Probabilities %v for %d epochs", res.Stats.Probabilities, epochs)
	}
	plain, _, err := GeneralWHPCtx(context.Background(), g, 8, 2, 0, Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, res) {
		t.Fatal("instrumentation changed the WHP spanner")
	}
}
