package spanner

import (
	"testing"

	"mpcspanner/internal/graph"
)

// White-box tests of the plan/apply iteration split that the Theorem 8.1
// selection relies on: planning must be side-effect free and deterministic,
// and freshEdges must count distinct fresh spanner additions.

func TestPlanIterationSideEffectFree(t *testing.T) {
	g := graph.GNP(120, 0.08, graph.UniformWeight(1, 9), 1)
	e := newEngine(g, 8, 2, engineConfig{Options: Options{Seed: 7}})
	coin := func(center int32) bool { return center%3 == 0 }

	snapshotCluster := append([]int32(nil), e.clusterOf...)
	snapshotAlive := append([]bool(nil), e.alive...)
	plan1 := e.planIteration(coin)
	// No state may have changed.
	for i := range snapshotCluster {
		if e.clusterOf[i] != snapshotCluster[i] {
			t.Fatal("planIteration mutated clusterOf")
		}
	}
	for i := range snapshotAlive {
		if e.alive[i] != snapshotAlive[i] {
			t.Fatal("planIteration mutated alive")
		}
	}
	for _, c := range e.active {
		if e.sampledFlag[c] {
			t.Fatal("planIteration leaked sampled flags")
		}
	}
	// Re-planning under the same coin is identical.
	plan2 := e.planIteration(coin)
	if len(plan1.sampled) != len(plan2.sampled) || e.freshEdges(plan1) != e.freshEdges(plan2) ||
		len(plan1.adds) != len(plan2.adds) || len(plan1.joins) != len(plan2.joins) ||
		len(plan1.kills) != len(plan2.kills) {
		t.Fatal("planIteration not deterministic")
	}
}

func TestPlanNewEdgesCountsDistinctFresh(t *testing.T) {
	// Triangle with an extra pendant: under "nothing sampled", every
	// supernode emits its per-cluster minima; shared minima must be counted
	// once by freshEdges.
	g := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	e := newEngine(g, 4, 1, engineConfig{Options: Options{Seed: 1}})
	plan := e.planIteration(func(int32) bool { return false })
	// All four edges are minima of some (v, c) group; none are in the
	// spanner yet.
	fresh := e.freshEdges(plan)
	if fresh != 4 {
		t.Fatalf("freshEdges = %d, want 4", fresh)
	}
	if len(plan.adds) <= fresh {
		t.Fatalf("adds (%d) should contain endpoint duplicates beyond freshEdges (%d)",
			len(plan.adds), fresh)
	}
	// After applying, re-planning the same decisions yields zero fresh.
	e.applyIteration(plan)
	if e.nAlive != 0 {
		t.Fatalf("nothing-sampled iteration should consume all edges, %d alive", e.nAlive)
	}
}

func TestApplyIterationFormsClusters(t *testing.T) {
	// Path 0-1-2-3-4 with only center 2 sampled: neighbors 1 and 3 join it;
	// 0 and 4 resolve their edges and dissolve.
	g := graph.Path(5, graph.UnitWeight, 1)
	e := newEngine(g, 4, 1, engineConfig{Options: Options{Seed: 1}})
	plan := e.planIteration(func(center int32) bool { return center == 2 })
	e.applyIteration(plan)
	if e.clusterOf[1] != 2 || e.clusterOf[3] != 2 {
		t.Fatalf("vertices 1,3 should join cluster 2: %v", e.clusterOf)
	}
	if len(e.active) != 1 || e.active[0] != 2 {
		t.Fatalf("active clusters %v, want [2]", e.active)
	}
	// All edges resolved: 1-2 and 2-3 are join edges (removed from E),
	// 0-1 and 3-4 were emitted by the dissolving endpoints.
	if e.nAlive != 0 {
		t.Fatalf("%d edges still alive", e.nAlive)
	}
	if e.spanCount != 4 {
		t.Fatalf("spanner has %d of the path's 4 edges", e.spanCount)
	}
}

func TestContractRelabelsDeterministically(t *testing.T) {
	// Two clusters after one iteration on two disjoint triangles; contract
	// and check the quotient is two isolated supernodes with centers in
	// increasing center-vertex order.
	g := graph.MustNew(6, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
	})
	e := newEngine(g, 4, 1, engineConfig{Options: Options{Seed: 1}})
	plan := e.planIteration(func(center int32) bool { return center == 0 || center == 4 })
	e.applyIteration(plan)
	e.contract()
	if e.nSuper != 2 {
		t.Fatalf("supernodes after contraction: %d", e.nSuper)
	}
	if e.centerVertex[0] != 0 || e.centerVertex[1] != 4 {
		t.Fatalf("centers %v, want [0 4]", e.centerVertex)
	}
	if e.nAlive != 0 {
		t.Fatal("disjoint triangles should leave no inter-cluster edges")
	}
}
