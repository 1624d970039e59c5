package pram

import (
	"testing"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

func TestLogStar(t *testing.T) {
	cases := map[float64]int{1: 1, 2: 1, 4: 2, 16: 3, 65536: 4, 1e9: 5}
	for n, want := range cases {
		if got := LogStar(n); got != want {
			t.Fatalf("LogStar(%v) = %d, want %d", n, got, want)
		}
	}
}

func TestPrimitiveAccounting(t *testing.T) {
	s := New(65536) // log* = 4
	s.ParallelFor(10)
	s.Semisort(100)
	s.FindMin(50)
	s.Hash(25)
	s.Merge(7)
	c := s.Costs()
	if c.Work != 10+100+50+25+7 {
		t.Fatalf("work %d", c.Work)
	}
	if c.Depth != 1+4+4+4+1 {
		t.Fatalf("depth %d", c.Depth)
	}
}

func TestSpannerCostsWithinDepthBound(t *testing.T) {
	g := graph.GNP(500, 0.04, graph.UniformWeight(1, 9), 3)
	for _, c := range []struct{ k, t int }{{4, 1}, {8, 2}, {16, 3}, {16, 15}} {
		res, costs, err := SpannerCostsWorkers(g, c.k, c.t, 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		if costs.Depth > DepthBound(g.N(), c.k, c.t) {
			t.Fatalf("k=%d t=%d: depth %d exceeds bound %d",
				c.k, c.t, costs.Depth, DepthBound(g.N(), c.k, c.t))
		}
		// Work is near-linear: a small multiple of m per iteration.
		maxWork := int64(res.Stats.Iterations+res.Stats.Epochs+2) * int64(8*g.M()+2*g.N())
		if costs.Work > maxWork {
			t.Fatalf("k=%d t=%d: work %d exceeds near-linear budget %d", c.k, c.t, costs.Work, maxWork)
		}
		if _, err := spanner.Verify(g, res, spanner.StretchBound(c.k, c.t)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDepthSublinearInK(t *testing.T) {
	// The headline PRAM claim: depth o(k). Compare the t=1 depth against the
	// Θ(k·log* n) cost of [BS07]-style constructions.
	n := 1000
	ls := int64(LogStar(float64(n)))
	// (k=16 is below the constant-factor crossover; the separation is
	// asymptotic in k.)
	for _, k := range []int{64, 256, 1024} {
		bound := DepthBound(n, k, 1)
		bsDepth := int64(k) * ls
		if bound >= bsDepth {
			t.Fatalf("k=%d: general depth bound %d not below BS07's %d", k, bound, bsDepth)
		}
	}
}

func TestSpannerCostsValidates(t *testing.T) {
	g := graph.Path(4, graph.UnitWeight, 1)
	if _, _, err := SpannerCostsWorkers(g, 0, 1, 1, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := SpannerCostsWorkers(g, 2, 0, 1, 0); err == nil {
		t.Fatal("t=0 accepted")
	}
}

func TestDepthBoundMonotoneInT(t *testing.T) {
	// Larger t means more iterations: depth grows.
	n, k := 4096, 64
	prev := int64(0)
	for _, tt := range []int{1, 2, 4, 8} {
		b := DepthBound(n, k, tt)
		if b < prev {
			t.Fatalf("depth bound decreased at t=%d: %d < %d", tt, b, prev)
		}
		prev = b
	}
}
