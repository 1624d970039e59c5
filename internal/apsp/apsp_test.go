package apsp

import (
	"context"
	"testing"

	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

// TestParams checks that ApproxCtx builds with the Corollary 1.4 parameters
// spanner.APSPParams(n) by default, honours a forced Options.T, and handles
// the degenerate two-vertex graph.
func TestParams(t *testing.T) {
	k, tt := spanner.APSPParams(1024)
	if k != 10 {
		t.Fatalf("k = %d for n=1024", k)
	}
	if tt < 1 || tt > 4 {
		t.Fatalf("t = %d for n=1024", tt)
	}
	g := graph.Connectify(graph.GNP(64, 0.1, graph.UniformWeight(1, 10), 2), 5)
	wantK, wantT := spanner.APSPParams(g.N())
	res, err := ApproxCtx(context.Background(), g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != wantK || res.T != wantT {
		t.Fatalf("default params (%d, %d), want (%d, %d)", res.K, res.T, wantK, wantT)
	}
	res, err = ApproxCtx(context.Background(), g, Options{Seed: 1, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != wantK || res.T != 1 {
		t.Fatalf("forced t ignored: params (%d, %d), want (%d, 1)", res.K, res.T, wantK)
	}
	res, err = ApproxCtx(context.Background(), graph.Path(2, graph.UnitWeight, 1), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 || res.T < 1 {
		t.Fatalf("degenerate params %d %d", res.K, res.T)
	}
}

func TestApproxEndToEnd(t *testing.T) {
	g := graph.Connectify(graph.GNP(500, 0.03, graph.UniformWeight(1, 20), 1), 10)
	res, err := ApproxCtx(context.Background(), g, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FitsOneMachine {
		t.Fatalf("spanner of %d edges should fit %d words", res.SpannerSize, res.CollectorWords)
	}
	if res.Rounds != res.BuildRounds+res.CollectRounds {
		t.Fatal("round bill does not add up")
	}
	rep, err := res.Measure(25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max > res.Bound+1e-9 {
		t.Fatalf("approximation %.3f exceeds certified bound %.3f", rep.Max, res.Bound)
	}
	if rep.Max < 1 {
		t.Fatalf("approximation below 1: %v", rep.Max)
	}
}

func TestApproxNeverUnderestimates(t *testing.T) {
	// Spanner distances are distances in a subgraph: they can only grow.
	g := graph.Connectify(graph.GNP(200, 0.05, graph.UniformWeight(1, 9), 7), 4)
	res, err := ApproxCtx(context.Background(), g, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	exactFrom0 := dist.Dijkstra(g, 0)
	approxFrom0 := dist.Dijkstra(res.Spanner(), 0)
	for v := range exactFrom0 {
		if approxFrom0[v] < exactFrom0[v]-1e-9 {
			t.Fatalf("vertex %d: approx %v below exact %v", v, approxFrom0[v], exactFrom0[v])
		}
	}
}

func TestApproxTOneFasterLooser(t *testing.T) {
	g := graph.Connectify(graph.GNP(600, 0.02, graph.UniformWeight(1, 5), 11), 2)
	fast, err := ApproxCtx(context.Background(), g, Options{Seed: 13, T: 1})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := ApproxCtx(context.Background(), g, Options{Seed: 13, T: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fast.BuildRounds >= slow.BuildRounds {
		t.Fatalf("t=1 (%d rounds) should build faster than t=8 (%d rounds)",
			fast.BuildRounds, slow.BuildRounds)
	}
	if fast.Bound <= slow.Bound {
		t.Fatalf("t=1 bound %.1f should be looser than t=8's %.1f", fast.Bound, slow.Bound)
	}
}

func TestApproxCDFQuantiles(t *testing.T) {
	g := graph.Connectify(graph.GNP(150, 0.06, graph.UnitWeight, 23), 1)
	res, err := ApproxCtx(context.Background(), g, Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := res.MeasureCDF(15, []float64{0, 0.5, 0.99, 1}, 31)
	if err != nil {
		t.Fatal(err)
	}
	if qs[0] < 1-1e-9 {
		t.Fatalf("minimum pair ratio %v below 1", qs[0])
	}
	if qs[3] > res.Bound+1e-9 {
		t.Fatalf("maximum quantile %v above certified bound %v", qs[3], res.Bound)
	}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
}

func TestApproxValidates(t *testing.T) {
	if _, err := ApproxCtx(context.Background(), graph.MustNew(1, nil), Options{}); err == nil {
		t.Fatal("single-vertex graph accepted")
	}
	g := graph.Path(4, graph.UnitWeight, 1)
	if _, err := ApproxCtx(context.Background(), g, Options{Gamma: 2}); err == nil {
		t.Fatal("gamma=2 accepted")
	}
}

func TestApproxDeterministic(t *testing.T) {
	g := graph.Connectify(graph.GNP(200, 0.04, graph.UniformWeight(1, 3), 37), 1)
	a, err := ApproxCtx(context.Background(), g, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ApproxCtx(context.Background(), g, Options{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	if a.SpannerSize != b.SpannerSize || a.Rounds != b.Rounds {
		t.Fatal("APSP pipeline not deterministic")
	}
}
