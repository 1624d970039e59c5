package mpcspanner

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"mpcspanner/internal/dist"
)

func TestFacadeAlgorithms(t *testing.T) {
	ctx := context.Background()
	g := GNP(300, 0.05, UniformWeight(1, 10), 1)
	for _, algo := range []Algorithm{AlgoGeneral, AlgoClusterMerge, AlgoSqrtK, AlgoBaswanaSen} {
		r, err := Build(ctx, g, WithAlgorithm(algo), WithK(4), WithSeed(2))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r.Size() == 0 || r.Size() > g.M() {
			t.Fatalf("%s: implausible size %d", algo, r.Size())
		}
		bound := StretchBound(4, 4) // loosest family bound covers all four here
		if algo == AlgoClusterMerge || algo == AlgoGeneral {
			bound = StretchBound(4, 1)
		}
		if _, err := r.Verify(bound); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	if _, err := Build(ctx, g, WithAlgorithm("nope"), WithK(4)); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestFacadeDefaultT(t *testing.T) {
	// Build's default T is ⌈log₂ k⌉, at least 1 (spanner.DefaultT).
	g := GNP(200, 0.06, UnitWeight, 3)
	for _, c := range []struct{ k, want int }{{16, 4}, {10, 4}} {
		r, err := Build(context.Background(), g, WithK(c.k), WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.T != c.want {
			t.Fatalf("k=%d: default T = %d, want %d", c.k, r.Stats.T, c.want)
		}
	}
}

func TestFacadeMPCAndReferenceAgree(t *testing.T) {
	ctx := context.Background()
	g := Grid(14, 14, UniformWeight(1, 5), 5)
	ref, err := Build(ctx, g, WithK(6), WithT(2), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	mpcRes, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(6), WithT(2), WithGamma(0.5), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.EdgeIDs, mpcRes.EdgeIDs) {
		t.Fatalf("facade planes disagree: %d vs %d edges", len(ref.EdgeIDs), len(mpcRes.EdgeIDs))
	}
}

func TestFacadeAPSP(t *testing.T) {
	g := Connectify(GNP(300, 0.04, UniformWeight(1, 8), 9), 2)
	s, err := Serve(context.Background(), g, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	res := s.APSP()
	rep, err := res.Measure(10, 13)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Max > res.Bound {
		t.Fatalf("approximation %.2f above bound %.2f", rep.Max, res.Bound)
	}
}

func TestFacadeOracle(t *testing.T) {
	ctx := context.Background()
	g := Connectify(GNP(200, 0.05, UniformWeight(1, 8), 25), 2)
	approx, err := Serve(ctx, g, WithSeed(27))
	if err != nil {
		t.Fatal(err)
	}
	res := approx.APSP()
	// An exact session over the collected spanner must agree with an
	// independent cache-free Dijkstra on the spanner.
	o, err := Serve(ctx, res.Spanner(), WithExact(), WithCacheRows(16))
	if err != nil {
		t.Fatal(err)
	}
	pairs := []Pair{{U: 0, V: 10}, {U: 0, V: 20}, {U: 5, V: 0}, {U: 199, V: 3}}
	got, err := o.QueryMany(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		if want := dist.Dijkstra(res.Spanner(), p.U)[p.V]; got[i] != want {
			t.Fatalf("pair %v: oracle %v != Dijkstra %v", p, got[i], want)
		}
	}
	s := o.Stats()
	if s.Misses != 3 || s.Resident != 3 {
		t.Fatalf("stats %+v, want 3 misses / 3 resident for 3 distinct sources", s)
	}
}

func TestFacadeCongestedClique(t *testing.T) {
	ctx := context.Background()
	g := Connectify(GNP(250, 0.05, UniformWeight(1, 5), 15), 1)
	b, err := Build(ctx, g, WithAlgorithm(AlgoCongestedClique), WithK(6), WithT(2), WithSeed(17))
	if err != nil {
		t.Fatal(err)
	}
	sp := b.CC
	if sp.Rounds <= 0 {
		t.Fatal("CC spanner must cost rounds")
	}
	ap, err := ApproxAPSPCongestedCliqueCtx(ctx, g, WithSeed(19))
	if err != nil {
		t.Fatal(err)
	}
	if ap.Rounds <= sp.Rounds/10 {
		t.Fatal("CC APSP round bill implausible")
	}
}

func TestFacadeUnweighted(t *testing.T) {
	g := Cycle(200, UnitWeight, 21)
	r, err := Build(context.Background(), g, WithAlgorithm(AlgoUnweighted), WithK(2), WithSeed(23))
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() == 0 {
		t.Fatal("empty unweighted spanner")
	}
}

func TestFacadeWorkersValidation(t *testing.T) {
	ctx := context.Background()
	g := Path(6, UnitWeight, 1)
	for _, algo := range []Algorithm{AlgoGeneral, AlgoMPC, AlgoCongestedClique} {
		if _, err := Build(ctx, g, WithAlgorithm(algo), WithK(4), WithT(2), WithWorkers(-1)); !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("Build(%s) accepted Workers < 0: %v", algo, err)
		}
	}
	if _, err := Serve(ctx, g, WithWorkers(-3)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("Serve accepted Workers < 0: %v", err)
	}
}

// TestFacadeWorkerCountInvariance pins the facade-level determinism
// contract end to end: a serial and a parallel run of every entry point
// produce identical artifacts.
func TestFacadeWorkerCountInvariance(t *testing.T) {
	ctx := context.Background()
	g := GNP(300, 0.05, UniformWeight(1, 20), 3)
	w := runtime.NumCPU()
	if w < 4 {
		w = 4
	}
	serial, err := Build(ctx, g, WithK(8), WithT(2), WithSeed(5), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(ctx, g, WithK(8), WithT(2), WithSeed(5), WithWorkers(w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.EdgeIDs, parallel.EdgeIDs) || !reflect.DeepEqual(serial.Stats, parallel.Stats) {
		t.Fatal("facade spanners differ between worker counts")
	}
	sessS, err := Serve(ctx, g, WithSeed(9), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	sessP, err := Serve(ctx, g, WithSeed(9), WithWorkers(w))
	if err != nil {
		t.Fatal(err)
	}
	apsS, apsP := sessS.APSP(), sessP.APSP()
	if !reflect.DeepEqual(apsS.SpannerEdgeIDs, apsP.SpannerEdgeIDs) || apsS.Rounds != apsP.Rounds {
		t.Fatal("facade APSP runs differ between worker counts")
	}
}
