package mpcspanner

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestServeSSSPSelection pins the facade contract of WithSSSP/WithDelta:
// the session reports its resolved engine, and the distances served are
// bit-identical across engines (the dist exactness contract surfacing here).
func TestServeSSSPSelection(t *testing.T) {
	ctx := context.Background()
	g := Connectify(GNP(500, 0.02, UniformWeight(1, 100), 11), 11)

	heap, err := Serve(ctx, g, WithExact(), WithSSSP(SSSPHeap))
	if err != nil {
		t.Fatal(err)
	}
	if info := heap.SSSP(); info.Engine != "heap" || info.Delta != 0 {
		t.Fatalf("heap session reports %+v", info)
	}

	delta, err := Serve(ctx, g, WithExact(), WithSSSP(SSSPDeltaStepping), WithDelta(2.5))
	if err != nil {
		t.Fatal(err)
	}
	if info := delta.SSSP(); info.Engine != "delta-stepping" || info.Delta != 2.5 {
		t.Fatalf("delta session reports %+v", info)
	}

	for _, src := range []int{0, 7, 499} {
		dh, err := heap.Row(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		dd, err := delta.Row(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range dh {
			if math.Float64bits(dh[v]) != math.Float64bits(dd[v]) {
				t.Fatalf("src %d: engines disagree at %d: heap %v delta %v", src, v, dh[v], dd[v])
			}
		}
	}

	// SSSPAuto resolves to delta-stepping with the auto-tuned width on every
	// graph; the resolved name — never "auto" — is what the session
	// advertises.
	auto, err := Serve(ctx, g, WithExact())
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Serve(ctx, g, WithExact(), WithSSSP(SSSPDeltaStepping))
	if err != nil {
		t.Fatal(err)
	}
	if info, want := auto.SSSP(), tuned.SSSP(); info.Engine != "delta-stepping" || info != want || info.Delta <= 0 {
		t.Fatalf("auto on n=500 resolved to %+v, want delta-stepping with the auto-tuned width %+v", info, want)
	}
}

// TestSSSPOptionValidation pins the rejection surface of the new options.
func TestSSSPOptionValidation(t *testing.T) {
	ctx := context.Background()
	g := Path(8, UnitWeight, 0)
	bad := [][]Option{
		{WithExact(), WithDelta(0)},
		{WithExact(), WithDelta(-1)},
		{WithExact(), WithDelta(math.NaN())},
		{WithExact(), WithDelta(math.Inf(1))},
		{WithExact(), WithSSSP(SSSPHeap), WithDelta(1)},
		{WithExact(), WithSSSP(SSSPEngine(99))},
	}
	for i, opts := range bad {
		if _, err := Serve(ctx, g, opts...); !errors.Is(err, ErrInvalidOption) {
			t.Fatalf("case %d: want ErrInvalidOption, got %v", i, err)
		}
	}

	// A Δ override under SSSPAuto (or an explicit delta engine) is fine.
	if _, err := Serve(ctx, g, WithExact(), WithDelta(3)); err != nil {
		t.Fatalf("WithDelta under auto rejected: %v", err)
	}

	// Build accepts the options (validated, inert) — same spanner either way.
	plain, err := Build(ctx, g, WithK(2), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Build(ctx, g, WithK(2), WithSeed(5), WithSSSP(SSSPDeltaStepping), WithDelta(1))
	if err != nil {
		t.Fatalf("Build rejected WithSSSP/WithDelta: %v", err)
	}
	if len(plain.EdgeIDs) != len(tuned.EdgeIDs) {
		t.Fatalf("SSSP options changed the build: %d vs %d edges", len(plain.EdgeIDs), len(tuned.EdgeIDs))
	}

	// The Corollary 1.5 clique pipeline takes no serving options at all.
	if _, err := ApproxAPSPCongestedCliqueCtx(ctx, g, WithSSSP(SSSPHeap)); !errors.Is(err, ErrInvalidOption) {
		t.Fatalf("clique pipeline accepted WithSSSP: %v", err)
	}
}

// TestServeArtifactSSSP: the row-fill engine combines with artifact serving —
// cold (non-frozen) sources fill through the selected engine.
func TestServeArtifactSSSP(t *testing.T) {
	ctx := context.Background()
	g := Connectify(GNP(300, 0.03, UniformWeight(1, 50), 3), 3)
	res, err := Build(ctx, g, WithK(3), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/sp.art"
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	a, err := Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	s, err := Serve(ctx, nil, WithArtifact(a), WithSSSP(SSSPDeltaStepping))
	if err != nil {
		t.Fatal(err)
	}
	if info := s.SSSP(); info.Engine != "delta-stepping" || info.Delta <= 0 {
		t.Fatalf("artifact session reports %+v", info)
	}
	ref, err := Serve(ctx, res.Spanner(), WithExact(), WithSSSP(SSSPHeap))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []int{0, 150, 299} {
		da, err := s.Row(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		dr, err := ref.Row(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		for v := range da {
			if math.Float64bits(da[v]) != math.Float64bits(dr[v]) {
				t.Fatalf("src %d: artifact delta row differs at %d", src, v)
			}
		}
	}
}
