package mpcspanner

import (
	"context"
	"math"
	"testing"

	"mpcspanner/internal/dist"
)

// TestServeSSSPSelection pins the default session's row-fill engine: it
// reports delta-stepping with the auto-tuned width, and the distances it
// serves are bit-identical to the heap Dijkstra reference (the dist
// exactness contract surfacing here).
func TestServeSSSPSelection(t *testing.T) {
	ctx := context.Background()
	g := Connectify(GNP(500, 0.02, UniformWeight(1, 100), 11), 11)

	s, err := Serve(ctx, g, WithExact())
	if err != nil {
		t.Fatal(err)
	}
	if info := s.SSSP(); info.Engine != "delta-stepping" || !(info.Delta > 0) {
		t.Fatalf("default session reports %+v, want delta-stepping with a positive width", info)
	}
	for _, src := range []int{0, 7, 499} {
		got, err := s.Row(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		want := dist.Dijkstra(g, src)
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("src %d: served row differs from the heap at %d: %v vs %v", src, v, got[v], want[v])
			}
		}
	}
}

// TestServeArtifactSSSP: artifact serving fills cold (non-frozen) sources
// through the same delta-stepping engine.
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

	s, err := Serve(ctx, nil, WithArtifact(a))
	if err != nil {
		t.Fatal(err)
	}
	if info := s.SSSP(); info.Engine != "delta-stepping" || info.Delta <= 0 {
		t.Fatalf("artifact session reports %+v", info)
	}
	for _, src := range []int{0, 150, 299} {
		da, err := s.Row(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		dr := dist.Dijkstra(res.Spanner(), src)
		for v := range da {
			if math.Float64bits(da[v]) != math.Float64bits(dr[v]) {
				t.Fatalf("src %d: artifact delta row differs at %d", src, v)
			}
		}
	}
}
