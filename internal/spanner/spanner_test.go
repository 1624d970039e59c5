package spanner

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"mpcspanner/internal/graph"
)

func init() { CheckInvariants = true }

// testGraphs is the workload family most tests sweep over.
func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp-unit":     graph.GNP(300, 0.05, graph.UnitWeight, 1),
		"gnp-weighted": graph.GNP(300, 0.05, graph.UniformWeight(1, 100), 2),
		"gnp-exp":      graph.GNP(250, 0.06, graph.ExpWeight(10), 3),
		"grid":         graph.Grid(18, 18, graph.UniformWeight(1, 5), 4),
		"torus":        graph.Torus(15, 15, graph.UnitWeight, 5),
		"pa":           graph.PreferentialAttachment(300, 4, graph.UniformWeight(1, 10), 6),
		"complete":     graph.Complete(60, graph.PowerWeight(2, 6), 7),
		"cycle":        graph.Cycle(100, graph.UnitWeight, 8),
		"tree":         graph.RandomTree(200, graph.UniformWeight(1, 3), 9),
		"disconnected": graph.MustNew(20, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 2}, {U: 3, V: 4, W: 1}}),
	}
}

func TestBaswanaSenStretchBound(t *testing.T) {
	for name, g := range testGraphs() {
		for _, k := range []int{2, 3, 5} {
			r, err := BaswanaSenCtx(context.Background(), g, k, Options{Seed: 11})
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			rep, err := Verify(g, r, float64(2*k-1))
			if err != nil {
				t.Fatalf("%s k=%d: %v (max %.3f)", name, k, err, rep.Max)
			}
		}
	}
}

func TestGeneralStretchBound(t *testing.T) {
	for name, g := range testGraphs() {
		for _, k := range []int{2, 4, 8} {
			for _, tt := range []int{1, 2, 3} {
				r, err := GeneralCtx(context.Background(), g, k, tt, Options{Seed: 13})
				if err != nil {
					t.Fatalf("%s k=%d t=%d: %v", name, k, tt, err)
				}
				if _, err := Verify(g, r, StretchBound(k, tt)); err != nil {
					t.Fatalf("%s k=%d t=%d: %v", name, k, tt, err)
				}
			}
		}
	}
}

func TestSqrtKStretchBound(t *testing.T) {
	g := graph.GNP(400, 0.04, graph.UniformWeight(1, 50), 17)
	for _, k := range []int{4, 9, 16} {
		r, err := SqrtKCtx(context.Background(), g, k, Options{Seed: 19})
		if err != nil {
			t.Fatal(err)
		}
		tt := int(math.Ceil(math.Sqrt(float64(k))))
		if _, err := Verify(g, r, StretchBound(k, tt)); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if r.Stats.Algorithm != "sqrt-k" {
			t.Fatalf("algorithm label %q", r.Stats.Algorithm)
		}
	}
}

func TestClusterMergeLabelAndBound(t *testing.T) {
	g := graph.GNP(300, 0.05, graph.UniformWeight(1, 10), 23)
	r, err := ClusterMergeCtx(context.Background(), g, 8, Options{Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Algorithm != "cluster-merge" {
		t.Fatalf("algorithm label %q", r.Stats.Algorithm)
	}
	// Theorem 4.10: stretch <= k^{log 3} (we verify against 2k^{log3}).
	if _, err := Verify(g, r, StretchBound(8, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestIterationSchedule(t *testing.T) {
	g := graph.GNP(400, 0.05, graph.UnitWeight, 31)
	cases := []struct{ k, t int }{{4, 1}, {8, 1}, {16, 1}, {16, 3}, {9, 3}, {16, 15}, {5, 4}}
	for _, c := range cases {
		r, err := GeneralCtx(context.Background(), g, c.k, c.t, Options{Seed: 37})
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Iterations > IterationBound(c.k, c.t) {
			t.Fatalf("k=%d t=%d: %d iterations exceeds bound %d",
				c.k, c.t, r.Stats.Iterations, IterationBound(c.k, c.t))
		}
	}
	// Baswana-Sen runs exactly k-1 iterations on a graph with enough edges.
	r, err := BaswanaSenCtx(context.Background(), g, 4, Options{Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Iterations != 3 {
		t.Fatalf("BS07 k=4 ran %d iterations, want 3", r.Stats.Iterations)
	}
	if r.Stats.Epochs != 0 {
		t.Fatalf("BS07 should not contract, saw %d epochs", r.Stats.Epochs)
	}
}

func TestSizeBound(t *testing.T) {
	// Expected size is O(n^{1+1/k}(t+log k)); check a generous constant on a
	// deterministic run. The point is catching blowups, not the constant.
	g := graph.GNP(1000, 0.02, graph.UniformWeight(1, 10), 41)
	n := float64(g.N())
	for _, c := range []struct{ k, t int }{{3, 1}, {5, 2}, {8, 3}} {
		r, err := GeneralCtx(context.Background(), g, c.k, c.t, Options{Seed: 43})
		if err != nil {
			t.Fatal(err)
		}
		bound := 6 * math.Pow(n, 1+1/float64(c.k)) * (float64(c.t) + math.Log2(float64(c.k)) + 1)
		if float64(r.Size()) > bound {
			t.Fatalf("k=%d t=%d: size %d exceeds %1.f", c.k, c.t, r.Size(), bound)
		}
		if r.Size() > g.M() {
			t.Fatalf("spanner larger than graph: %d > %d", r.Size(), g.M())
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.GNP(300, 0.04, graph.UniformWeight(1, 7), 47)
	a, _ := GeneralCtx(context.Background(), g, 6, 2, Options{Seed: 53})
	b, _ := GeneralCtx(context.Background(), g, 6, 2, Options{Seed: 53})
	if len(a.EdgeIDs) != len(b.EdgeIDs) {
		t.Fatalf("sizes differ: %d vs %d", len(a.EdgeIDs), len(b.EdgeIDs))
	}
	for i := range a.EdgeIDs {
		if a.EdgeIDs[i] != b.EdgeIDs[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
	c, _ := GeneralCtx(context.Background(), g, 6, 2, Options{Seed: 54})
	if len(a.EdgeIDs) == len(c.EdgeIDs) {
		same := true
		for i := range a.EdgeIDs {
			if a.EdgeIDs[i] != c.EdgeIDs[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical spanners (suspicious)")
		}
	}
}

func TestRepetitionsPickSmallest(t *testing.T) {
	g := graph.GNP(400, 0.05, graph.UnitWeight, 59)
	single, _ := GeneralCtx(context.Background(), g, 5, 2, Options{Seed: 61})
	multi, _ := GeneralCtx(context.Background(), g, 5, 2, Options{Seed: 61, Repetitions: 8})
	if multi.Size() > single.Size() {
		// The winning repetition is the min over 8 runs including different
		// seeds; it can't be worse than the best of them, but the single run
		// uses the undived seed, so just check multi is min over its runs by
		// re-running each rep is overkill — instead assert it's not larger
		// than a fresh single run with its winning derived seed is
		// consistent: the cheap invariant is multi <= max over reps, and
		// that it's a valid spanner.
		t.Logf("note: multi-rep size %d vs single %d (different seed streams)", multi.Size(), single.Size())
	}
	if _, err := Verify(g, multi, StretchBound(5, 2)); err != nil {
		t.Fatal(err)
	}
	if multi.Stats.Repetition < 0 || multi.Stats.Repetition >= 8 {
		t.Fatalf("winning repetition %d out of range", multi.Stats.Repetition)
	}
}

func TestKOne(t *testing.T) {
	// k=1 means stretch 1: the spanner must preserve every edge's exact
	// distance, i.e. keep a minimum parallel edge for every adjacent pair.
	g := graph.MustNew(3, []graph.Edge{
		{U: 0, V: 1, W: 5}, {U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1},
	})
	r, err := GeneralCtx(context.Background(), g, 1, 1, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(g, r, 1); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 2 {
		t.Fatalf("k=1 spanner size %d, want 2 (min parallel edge kept)", r.Size())
	}
}

func TestInvalidParameters(t *testing.T) {
	g := graph.Path(4, graph.UnitWeight, 1)
	if _, err := GeneralCtx(context.Background(), g, 0, 1, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := GeneralCtx(context.Background(), g, 2, 0, Options{}); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := BaswanaSenCtx(context.Background(), g, -1, Options{}); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty := graph.MustNew(0, nil)
	r, err := GeneralCtx(context.Background(), empty, 4, 2, Options{})
	if err != nil || r.Size() != 0 {
		t.Fatalf("empty graph: %v size=%d", err, r.Size())
	}
	single := graph.MustNew(1, nil)
	if r, err = GeneralCtx(context.Background(), single, 4, 2, Options{}); err != nil || r.Size() != 0 {
		t.Fatalf("single vertex: %v size=%d", err, r.Size())
	}
	pair := graph.MustNew(2, []graph.Edge{{U: 0, V: 1, W: 3}})
	r, err = GeneralCtx(context.Background(), pair, 4, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 1 {
		t.Fatalf("two-vertex graph spanner size %d, want 1", r.Size())
	}
}

func TestDisconnectedPreserved(t *testing.T) {
	g := graph.MustNew(9, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 2, V: 0, W: 1},
		{U: 3, V: 4, W: 2}, {U: 4, V: 5, W: 2}, {U: 5, V: 3, W: 2},
	})
	for _, k := range []int{2, 4} {
		r, err := GeneralCtx(context.Background(), g, k, 2, Options{Seed: 67})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(g, r, StretchBound(k, 2)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestParallelEdges(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 0, V: 1, W: 9}, {U: 1, V: 2, W: 1},
		{U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 4}, {U: 2, V: 3, W: 3},
	})
	r, err := GeneralCtx(context.Background(), g, 3, 1, Options{Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(g, r, StretchBound(3, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestSupernodeHistoryDecreases(t *testing.T) {
	g := graph.GNP(600, 0.03, graph.UnitWeight, 73)
	r, err := GeneralCtx(context.Background(), g, 8, 2, Options{Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	prev := g.N()
	for i, s := range r.Stats.SupernodeHistory {
		if s > prev {
			t.Fatalf("supernode count grew at epoch %d: %d -> %d", i+1, prev, s)
		}
		prev = s
	}
	if len(r.Stats.Probabilities) != r.Stats.Epochs && len(r.Stats.Probabilities) != r.Stats.Epochs+1 {
		t.Fatalf("probabilities %d vs epochs %d", len(r.Stats.Probabilities), r.Stats.Epochs)
	}
	for i := 1; i < len(r.Stats.Probabilities); i++ {
		if r.Stats.Probabilities[i] > r.Stats.Probabilities[i-1] {
			t.Fatal("sampling probabilities should be non-increasing across epochs")
		}
	}
}

func TestRadiusMeasurement(t *testing.T) {
	g := graph.GNP(500, 0.04, graph.UnitWeight, 83)
	for _, c := range []struct{ k, t int }{{8, 1}, {8, 2}, {9, 3}} {
		r, err := GeneralCtx(context.Background(), g, c.k, c.t, Options{Seed: 89, MeasureRadius: true})
		if err != nil {
			t.Fatal(err)
		}
		// Corollary 5.9: hop radius <= ((2t+1)^l - 1)/2 with l the number
		// of scheduled epochs (a partial final epoch still grows radius).
		specs := Schedule(c.k, c.t)
		l := specs[len(specs)-1].Epoch
		bound := (math.Pow(float64(2*c.t+1), float64(l)) - 1) / 2
		if float64(r.Stats.Radius.MaxHops) > bound+1e-9 {
			t.Fatalf("k=%d t=%d: hop radius %d exceeds Corollary 5.9 bound %.1f (epochs=%d)",
				c.k, c.t, r.Stats.Radius.MaxHops, bound, l)
		}
	}
}

func TestStretchBoundValues(t *testing.T) {
	if StretchBound(1, 1) != 1 {
		t.Fatal("k=1 bound should be 1")
	}
	// t=3, k=4: s = log7/log4, k^s = 7, bound = 14.
	if math.Abs(StretchBound(4, 3)-14) > 1e-9 {
		t.Fatalf("StretchBound(4,3) = %v, want 14", StretchBound(4, 3))
	}
	// t=1: 2k^{log2 3}.
	want := 2 * math.Pow(8, math.Log2(3))
	if math.Abs(StretchBound(8, 1)-want) > 1e-9 {
		t.Fatalf("StretchBound(8,1) = %v, want %v", StretchBound(8, 1), want)
	}
	// Monotone: bigger t never worsens the guarantee.
	for k := 4; k <= 64; k *= 2 {
		prev := math.Inf(1)
		for tt := 1; tt < k; tt++ {
			b := StretchBound(k, tt)
			if b > prev+1e-9 {
				t.Fatalf("StretchBound(%d,%d)=%v above StretchBound(%d,%d)=%v", k, tt, b, k, tt-1, prev)
			}
			prev = b
		}
	}
}

func TestIterationBoundValues(t *testing.T) {
	if IterationBound(16, 15) != 15 {
		t.Fatalf("BS07 regime: %d", IterationBound(16, 15))
	}
	if IterationBound(16, 1) != 4 {
		t.Fatalf("t=1, k=16 should be log2 k = 4, got %d", IterationBound(16, 1))
	}
	if IterationBound(1, 1) != 0 {
		t.Fatal("k=1 needs no iterations")
	}
}

// TestAPSPParams pins the one default-parameter rule: DefaultT(k) =
// max(1, ⌈log₂ k⌉) and APSPParams(n) = (⌈log₂ n⌉, DefaultT(k)), the
// Corollary 1.4/1.5 choice, computed on integers. The sweeps check that the
// integer rule equals the floating-point ⌈log₂ ·⌉ formulas the paper states.
func TestAPSPParams(t *testing.T) {
	for _, c := range []struct{ k, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {10, 4}, {16, 4}, {17, 5},
	} {
		if got := DefaultT(c.k); got != c.want {
			t.Errorf("DefaultT(%d) = %d, want %d", c.k, got, c.want)
		}
	}
	for _, c := range []struct{ n, k, t int }{
		{2, 2, 1}, {3, 2, 1}, {4, 2, 1}, {5, 3, 2}, {1024, 10, 4}, {1025, 11, 4},
		{20_000, 15, 4}, {40_000, 16, 4}, {65_537, 17, 5}, {1 << 24, 24, 5},
	} {
		if k, tt := APSPParams(c.n); k != c.k || tt != c.t {
			t.Errorf("APSPParams(%d) = (%d, %d), want (%d, %d)", c.n, k, tt, c.k, c.t)
		}
	}
	for k := 1; k <= 1<<16; k++ {
		if got, want := DefaultT(k), max(1, int(math.Ceil(math.Log2(float64(k))))); got != want {
			t.Fatalf("DefaultT(%d) = %d, float rule %d", k, got, want)
		}
	}
	for n := 4; n <= 1<<20; n++ {
		k, tt := APSPParams(n)
		wantK := int(math.Ceil(math.Log2(float64(n))))
		wantT := max(1, int(math.Ceil(math.Log2(math.Log2(float64(n))))))
		if k != wantK || tt != wantT {
			t.Fatalf("APSPParams(%d) = (%d, %d), float rule (%d, %d)", n, k, tt, wantK, wantT)
		}
	}
}

func TestPropertyValidSpanner(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNP(120, 0.07, graph.UniformWeight(1, 20), seed)
		k := 2 + int(seed%5)
		tt := 1 + int((seed>>8)%3)
		r, err := GeneralCtx(context.Background(), g, k, tt, Options{Seed: seed ^ 0xabc})
		if err != nil {
			return false
		}
		_, err = Verify(g, r, StretchBound(k, tt))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBaswanaSen(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNM(100, 400, graph.UniformWeight(1, 9), seed)
		k := 2 + int(seed%4)
		r, err := BaswanaSenCtx(context.Background(), g, k, Options{Seed: seed})
		if err != nil {
			return false
		}
		_, err = Verify(g, r, float64(2*k-1))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralBeatsBSOnIterations(t *testing.T) {
	// The paper's headline: poly(log k) iterations instead of Θ(k), at a
	// modest stretch cost. Check the iteration counts actually separate.
	g := graph.GNP(800, 0.03, graph.UnitWeight, 97)
	k := 16
	bs, _ := BaswanaSenCtx(context.Background(), g, k, Options{Seed: 101})
	cm, _ := ClusterMergeCtx(context.Background(), g, k, Options{Seed: 101})
	if cm.Stats.Iterations >= bs.Stats.Iterations {
		t.Fatalf("cluster-merge used %d iterations, BS07 %d — no speedup",
			cm.Stats.Iterations, bs.Stats.Iterations)
	}
}
