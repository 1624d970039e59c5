package mpc

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

func TestNewSimSizing(t *testing.T) {
	s, err := NewSim(10000, 50000, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.MemoryPerMachine() != 100 {
		t.Fatalf("S = %d, want n^0.5 = 100", s.MemoryPerMachine())
	}
	if s.Machines() != 500 {
		t.Fatalf("P = %d, want 500", s.Machines())
	}
	if _, err := NewSim(10, 10, 0); err == nil {
		t.Fatal("gamma=0 accepted")
	}
	if _, err := NewSim(10, 10, 1.5); err == nil {
		t.Fatal("gamma>1 accepted")
	}
	if _, err := NewSim(-1, 10, 0.5); err == nil {
		t.Fatal("negative n accepted")
	}
}

func TestTreeAndSortRounds(t *testing.T) {
	s, _ := NewSim(10000, 50000, 0.5)
	// P=500, S=100: tree depth = ceil(log 500 / log 100) = 2.
	if s.TreeRounds() != 2 {
		t.Fatalf("tree rounds %d, want 2", s.TreeRounds())
	}
	if s.SortRounds() != 5 {
		t.Fatalf("sort rounds %d, want 5", s.SortRounds())
	}
	// Single machine: everything local.
	one, _ := NewSim(100, 3, 1)
	if one.TreeRounds() != 0 || one.SortRounds() != 0 {
		t.Fatal("single machine should cost no rounds")
	}
	// Smaller gamma -> more machines with less memory -> deeper trees.
	lo, _ := NewSim(10000, 50000, 0.25)
	if lo.TreeRounds() <= s.TreeRounds() {
		t.Fatalf("gamma=0.25 tree %d should exceed gamma=0.5 tree %d", lo.TreeRounds(), s.TreeRounds())
	}
}

func TestSimLoadOverflow(t *testing.T) {
	s, _ := NewSim(16, 8, 0.5) // S=4, P=2: capacity 8
	good := make([]Tuple, 8)
	if err := s.Load(good); err != nil {
		t.Fatalf("at-capacity load rejected: %v", err)
	}
	bad := make([]Tuple, 9)
	if err := s.Load(bad); err == nil {
		t.Fatal("overflow load accepted")
	}
}

func TestSimSortAndAccounting(t *testing.T) {
	s, _ := NewSim(100, 50, 0.5) // S=10, P=5
	ts := make([]Tuple, 50)
	for i := range ts {
		ts[i] = Tuple{Src: int32(49 - i), W: float64(i % 7)}
	}
	if err := s.Load(ts); err != nil {
		t.Fatal(err)
	}
	r0 := s.Rounds()
	if err := s.SortByKey(func(t *Tuple) uint64 { return uint64(t.Src) }); err != nil {
		t.Fatal(err)
	}
	if s.Rounds() != r0+s.SortRounds() {
		t.Fatalf("sort charged %d rounds, want %d", s.Rounds()-r0, s.SortRounds())
	}
	prev := int32(-1)
	s.Scan(func(tp *Tuple) {
		if tp.Src < prev {
			t.Fatalf("not sorted: %d after %d", tp.Src, prev)
		}
		prev = tp.Src
	})
	if s.Sorts() != 1 {
		t.Fatalf("sort count %d", s.Sorts())
	}
	s.ChargeTree(3)
	if s.TreeOps() != 3 {
		t.Fatalf("tree ops %d", s.TreeOps())
	}
}

func TestSimFiltersAreLocal(t *testing.T) {
	s, _ := NewSim(100, 20, 0.5)
	ts := make([]Tuple, 20)
	for i := range ts {
		ts[i] = Tuple{Src: int32(i)}
	}
	_ = s.Load(ts)
	r0 := s.Rounds()
	s.Filter(func(t *Tuple) bool { t.Src *= 2; return true })
	s.Filter(func(t *Tuple) bool { return t.Src < 20 })
	if s.Rounds() != r0 {
		t.Fatal("local passes must not charge rounds")
	}
	if s.Len() != 10 {
		t.Fatalf("filter kept %d, want 10", s.Len())
	}
}

// crossPlane asserts the distributed driver reproduces the sequential
// reference exactly.
func crossPlane(t *testing.T, g *graph.Graph, k, tt int, gamma float64, seed uint64) *Result {
	t.Helper()
	ref, err := spanner.GeneralCtx(context.Background(), g, k, tt, spanner.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildSpannerCtx(context.Background(), g, k, tt, seed, Options{Gamma: gamma})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.EdgeIDs) != len(ref.EdgeIDs) {
		t.Fatalf("plane mismatch: mpc %d edges, reference %d", len(got.EdgeIDs), len(ref.EdgeIDs))
	}
	for i := range got.EdgeIDs {
		if got.EdgeIDs[i] != ref.EdgeIDs[i] {
			t.Fatalf("plane mismatch at position %d: %d vs %d", i, got.EdgeIDs[i], ref.EdgeIDs[i])
		}
	}
	return got
}

func TestCrossPlaneEquality(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":   graph.GNP(250, 0.05, graph.UniformWeight(1, 50), 1),
		"grid":  graph.Grid(15, 15, graph.UniformWeight(1, 5), 2),
		"pa":    graph.PreferentialAttachment(200, 4, graph.UnitWeight, 3),
		"torus": graph.Torus(12, 12, graph.ExpWeight(4), 4),
		// Tie-heavy: group minima are decided by the Orig tie-break.
		"gnm-ties": graph.GNM(150, 2000, graph.PowerWeight(2, 2), 5),
	}
	for name, g := range graphs {
		for _, c := range []struct{ k, t int }{{2, 1}, {4, 1}, {4, 2}, {8, 3}, {1, 1}} {
			res := crossPlane(t, g, c.k, c.t, 0.5, 99)
			if res.PeakMachineLoad > res.MemoryPerMachine {
				t.Fatalf("%s k=%d t=%d: machine load %d exceeds S=%d",
					name, c.k, c.t, res.PeakMachineLoad, res.MemoryPerMachine)
			}
			if res.PeakTotalTuples > 2*g.M() {
				t.Fatalf("%s: total memory grew beyond input footprint", name)
			}
		}
	}
}

func TestRoundsWithinBound(t *testing.T) {
	g := graph.GNP(300, 0.06, graph.UniformWeight(1, 9), 5)
	for _, gamma := range []float64{0.33, 0.5, 0.75} {
		for _, c := range []struct{ k, t int }{{4, 1}, {8, 2}, {16, 3}} {
			res, err := BuildSpannerCtx(context.Background(), g, c.k, c.t, 7, Options{Gamma: gamma})
			if err != nil {
				t.Fatal(err)
			}
			sim, _ := NewSim(g.N(), 2*g.M(), gamma)
			if res.Rounds > RoundBound(sim, c.k, c.t) {
				t.Fatalf("gamma=%v k=%d t=%d: %d rounds exceeds bound %d",
					gamma, c.k, c.t, res.Rounds, RoundBound(sim, c.k, c.t))
			}
			if res.Rounds <= 0 {
				t.Fatal("distributed run must cost rounds")
			}
		}
	}
}

func TestRoundsScaleWithGammaInverse(t *testing.T) {
	// Halving gamma (squaring machine count) must not reduce rounds: the
	// 1/γ factor of Theorem 1.1.
	g := graph.GNP(400, 0.05, graph.UnitWeight, 11)
	hi, err := BuildSpannerCtx(context.Background(), g, 8, 2, 13, Options{Gamma: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := BuildSpannerCtx(context.Background(), g, 8, 2, 13, Options{Gamma: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if lo.Rounds < hi.Rounds {
		t.Fatalf("gamma=0.25 used %d rounds < gamma=0.75's %d", lo.Rounds, hi.Rounds)
	}
	// Identical output regardless of machine granularity.
	if len(lo.EdgeIDs) != len(hi.EdgeIDs) {
		t.Fatal("gamma must not change the constructed spanner")
	}
}

func TestIterationsMatchSchedule(t *testing.T) {
	g := graph.GNP(300, 0.06, graph.UnitWeight, 17)
	res, err := BuildSpannerCtx(context.Background(), g, 16, 3, 19, Options{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spanner.Schedule(16, 3)); res.Iterations > want {
		t.Fatalf("iterations %d exceed schedule %d", res.Iterations, want)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations executed")
	}
}

func TestBuildSpannerValidates(t *testing.T) {
	g := graph.Path(4, graph.UnitWeight, 1)
	if _, err := BuildSpannerCtx(context.Background(), g, 0, 1, 1, Options{Gamma: 0.5}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := BuildSpannerCtx(context.Background(), g, 2, 0, 1, Options{Gamma: 0.5}); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := BuildSpannerCtx(context.Background(), g, 2, 1, 1, Options{Gamma: 0}); err == nil {
		t.Fatal("gamma=0 accepted")
	}
}

func TestDriverSpannerIsValid(t *testing.T) {
	g := graph.GNP(200, 0.08, graph.UniformWeight(1, 20), 23)
	res, err := BuildSpannerCtx(context.Background(), g, 4, 2, 29, Options{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	r := &spanner.Result{EdgeIDs: res.EdgeIDs}
	if _, err := spanner.Verify(g, r, spanner.StretchBound(4, 2)); err != nil {
		t.Fatal(err)
	}
}

func TestCrossPlaneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNM(80, 300, graph.UniformWeight(1, 8), seed)
		k := 2 + int(seed%4)
		tt := 1 + int((seed>>4)%3)
		ref, err := spanner.GeneralCtx(context.Background(), g, k, tt, spanner.Options{Seed: seed})
		if err != nil {
			return false
		}
		got, err := BuildSpannerCtx(context.Background(), g, k, tt, seed, Options{Gamma: 0.4})
		if err != nil {
			return false
		}
		if len(got.EdgeIDs) != len(ref.EdgeIDs) {
			return false
		}
		for i := range got.EdgeIDs {
			if got.EdgeIDs[i] != ref.EdgeIDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyGraphDriver(t *testing.T) {
	g := graph.MustNew(3, nil)
	res, err := BuildSpannerCtx(context.Background(), g, 4, 2, 1, Options{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EdgeIDs) != 0 {
		t.Fatal("edgeless graph should give an empty spanner")
	}
}

func TestRoundBoundMatchesTheoremShape(t *testing.T) {
	// RoundBound ~ (1/γ)·t·log k/log(t+1): check growth in k at fixed t.
	sim, _ := NewSim(1<<20, 1<<22, 0.5)
	r16 := RoundBound(sim, 16, 1)
	r256 := RoundBound(sim, 256, 1)
	// log2(256)/log2(16) = 2, allow slack for ceilings.
	if ratio := float64(r256) / float64(r16); ratio < 1.5 || ratio > 3 {
		t.Fatalf("k-scaling ratio %v outside [1.5,3]", ratio)
	}
	if math.IsNaN(float64(RoundBound(sim, 1, 1))) || RoundBound(sim, 1, 1) < 0 {
		t.Fatal("degenerate k must still be defined")
	}
}
