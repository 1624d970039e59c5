package cclique

import (
	"context"
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Fatal("empty clique accepted")
	}
	c, err := New(5)
	if err != nil || c.N() != 5 {
		t.Fatalf("New(5): %v", err)
	}
}

func TestBroadcastVolume(t *testing.T) {
	c, _ := New(101)
	r := c.BroadcastVolume(1000)
	if r != 2+10 { // ceil(1000/100) = 10 full-rate rounds + 2 balancing
		t.Fatalf("broadcast of 1000 words charged %d rounds", r)
	}
	if c.BroadcastVolume(0) != 0 {
		t.Fatal("empty broadcast should be free")
	}
	one, _ := New(1)
	if got := one.BroadcastVolume(5); got != 2+5 {
		t.Fatalf("degenerate clique broadcast charged %d", got)
	}
}

func TestBuildSpannerValidAndWHP(t *testing.T) {
	g := graph.GNP(300, 0.05, graph.UniformWeight(1, 20), 3)
	res, err := BuildSpannerCtx(context.Background(), g, 8, 2, spanner.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := &spanner.Result{EdgeIDs: res.EdgeIDs}
	if _, err := spanner.Verify(g, r, spanner.StretchBound(8, 2)); err != nil {
		t.Fatal(err)
	}
	if res.Rounds > RoundBound(8, 2) {
		t.Fatalf("rounds %d exceed bound %d", res.Rounds, RoundBound(8, 2))
	}
	if res.WHP == nil || res.WHP.Runs < 2 {
		t.Fatal("whp selection should run multiple parallel instances")
	}
	// On a healthy random instance, nearly all iterations should be settled
	// by the two-event criterion rather than the fallback.
	if res.WHP.GoodCount == 0 && len(res.WHP.Choices) > 0 {
		t.Fatal("no iteration satisfied the two-event criterion")
	}
	// Size must respect the certified w.h.p. budget.
	if float64(len(res.EdgeIDs)) > spanner.SizeBoundWHP(g.N(), 8, 2) {
		t.Fatalf("size %d exceeds whp budget %.0f", len(res.EdgeIDs), spanner.SizeBoundWHP(g.N(), 8, 2))
	}
}

func TestBuildSpannerDeterministic(t *testing.T) {
	g := graph.GNP(200, 0.06, graph.UnitWeight, 7)
	a, err := BuildSpannerCtx(context.Background(), g, 4, 1, spanner.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSpannerCtx(context.Background(), g, 4, 1, spanner.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.EdgeIDs) != len(b.EdgeIDs) || a.Rounds != b.Rounds {
		t.Fatal("CC spanner not deterministic under seed")
	}
}

// TestAPSPParams checks that ApproxAPSPCtx builds with the Corollary 1.5
// parameters spanner.APSPParams(n) and handles the degenerate two-vertex
// graph.
func TestAPSPParams(t *testing.T) {
	k, tt := spanner.APSPParams(1024)
	if k != 10 {
		t.Fatalf("k = %d for n=1024, want 10", k)
	}
	if tt < 1 || tt > 4 {
		t.Fatalf("t = %d for n=1024, expected ~loglog n", tt)
	}
	g := graph.Connectify(graph.GNP(64, 0.1, graph.UniformWeight(1, 10), 2), 5)
	wantK, wantT := spanner.APSPParams(g.N())
	res, err := ApproxAPSPCtx(context.Background(), g, spanner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != wantK || res.T != wantT {
		t.Fatalf("params (%d, %d), want (%d, %d)", res.K, res.T, wantK, wantT)
	}
	res, err = ApproxAPSPCtx(context.Background(), graph.Path(2, graph.UnitWeight, 1), spanner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 || res.T < 1 {
		t.Fatalf("degenerate params k=%d t=%d", res.K, res.T)
	}
}

func TestApproxAPSPEndToEnd(t *testing.T) {
	g := graph.Connectify(graph.GNP(400, 0.03, graph.UniformWeight(1, 10), 13), 5)
	res, err := ApproxAPSPCtx(context.Background(), g, spanner.Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != res.SpannerRounds+res.CollectionRounds {
		t.Fatal("round bill does not add up")
	}
	if res.CollectionRounds <= 0 {
		t.Fatal("collection must cost rounds")
	}
	rep, err := res.MeasureApproximation(20, 19)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max > res.Bound+1e-9 {
		t.Fatalf("measured approximation %.2f exceeds certified bound %.2f", rep.Max, res.Bound)
	}
	if rep.Max < 1 {
		t.Fatalf("approximation below 1: %v", rep.Max)
	}
}

func TestApproxAPSPSublogarithmicRounds(t *testing.T) {
	// The headline: rounds ~ poly(log log n) for the spanner phase plus
	// O(log log n) for collection — far below log n for moderate n. We
	// check the spanner phase round count is far below k = log n iterations'
	// worth of [BS07]-style rounds.
	g := graph.Connectify(graph.GNP(800, 0.02, graph.UniformWeight(1, 5), 23), 3)
	res, err := ApproxAPSPCtx(context.Background(), g, spanner.Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	bsRounds := (res.K - 1) * roundsPerIter // what Θ(k) iterations would bill
	if res.SpannerRounds >= bsRounds {
		t.Fatalf("spanner rounds %d not below the Θ(k)=%d baseline", res.SpannerRounds, bsRounds)
	}
}

func TestBuildSpannerEmptyGraph(t *testing.T) {
	if _, err := BuildSpannerCtx(context.Background(), graph.MustNew(0, nil), 2, 1, spanner.Options{Seed: 1}); err == nil {
		t.Fatal("empty graph accepted")
	}
	res, err := BuildSpannerCtx(context.Background(), graph.MustNew(2, nil), 2, 1, spanner.Options{Seed: 1})
	if err != nil || len(res.EdgeIDs) != 0 {
		t.Fatalf("edgeless graph: %v, %d edges", err, len(res.EdgeIDs))
	}
}
