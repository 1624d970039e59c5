package cluster

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/par"
	"mpcspanner/internal/xrand"
)

func TestPartitionIdentity(t *testing.T) {
	p := NewPartition(5)
	if p.Count() != 5 || p.N() != 5 {
		t.Fatalf("count=%d n=%d", p.Count(), p.N())
	}
	for v := 0; v < 5; v++ {
		if p.Super(v) != v {
			t.Fatalf("Super(%d) = %d", v, p.Super(v))
		}
	}
}

func TestPartitionContract(t *testing.T) {
	p := NewPartition(6)
	// Merge {0,1}->0, {2,3}->1, finish {4,5}.
	if err := p.ContractWorkers([]int32{0, 0, 1, 1, None, None}, 2, 1); err != nil {
		t.Fatal(err)
	}
	if p.Count() != 2 {
		t.Fatalf("count %d", p.Count())
	}
	want := []int{0, 0, 1, 1, None, None}
	for v, w := range want {
		if p.Super(v) != w {
			t.Fatalf("Super(%d) = %d, want %d", v, p.Super(v), w)
		}
	}
	// Second contraction composes.
	if err := p.ContractWorkers([]int32{0, 0}, 1, 1); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if p.Super(v) != 0 {
			t.Fatalf("after second contract Super(%d) = %d", v, p.Super(v))
		}
	}
	if p.Super(4) != None {
		t.Fatal("finished vertex resurrected")
	}
}

func TestPartitionContractValidates(t *testing.T) {
	p := NewPartition(2)
	if err := p.ContractWorkers([]int32{0, 5}, 2, 1); err == nil {
		t.Fatal("out-of-range new id accepted")
	}
}

func TestPartitionMembers(t *testing.T) {
	p := NewPartition(5)
	if err := p.ContractWorkers([]int32{0, 1, 0, None, 1}, 2, 1); err != nil {
		t.Fatal(err)
	}
	m := p.Members()
	if len(m) != 2 {
		t.Fatalf("groups %d", len(m))
	}
	if len(m[0]) != 2 || m[0][0] != 0 || m[0][1] != 2 {
		t.Fatalf("group 0 = %v", m[0])
	}
	if len(m[1]) != 2 || m[1][0] != 1 || m[1][1] != 4 {
		t.Fatalf("group 1 = %v", m[1])
	}
}

func TestFromGraph(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}})
	q := FromGraph(g)
	if len(q) != 2 {
		t.Fatalf("%d quotient edges", len(q))
	}
	if q[0] != (QEdge{A: 0, B: 1, W: 2, Orig: 0}) || q[1] != (QEdge{A: 1, B: 2, W: 3, Orig: 1}) {
		t.Fatalf("lift wrong: %v", q)
	}
}

func TestMinDedup(t *testing.T) {
	in := []QEdge{
		{A: 1, B: 0, W: 5, Orig: 0},
		{A: 0, B: 1, W: 3, Orig: 1},
		{A: 0, B: 1, W: 3, Orig: 2}, // tie: keep smaller orig id
		{A: 2, B: 1, W: 1, Orig: 3},
	}
	out := MinDedup(in, 1, nil)
	if len(out) != 2 {
		t.Fatalf("dedup kept %d edges", len(out))
	}
	if out[0].A != 0 || out[0].B != 1 || out[0].W != 3 || out[0].Orig != 1 {
		t.Fatalf("pair (0,1) kept %+v", out[0])
	}
	if out[1].A != 1 || out[1].B != 2 || out[1].Orig != 3 {
		t.Fatalf("pair (1,2) kept %+v", out[1])
	}
}

func TestMinDedupEmpty(t *testing.T) {
	if out := MinDedup(nil, 1, nil); len(out) != 0 {
		t.Fatal("empty input should stay empty")
	}
}

func TestMinDedupProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var in []QEdge
		for i := 0; i < 60; i++ {
			a, b := r.Intn(8), r.Intn(8)
			if a == b {
				continue
			}
			in = append(in, QEdge{A: a, B: b, W: float64(1 + r.Intn(5)), Orig: i})
		}
		out := MinDedup(in, 1, nil)
		// 1) one edge per unordered pair; 2) it has the minimum weight.
		min := map[[2]int]float64{}
		for _, e := range in {
			a, b := e.A, e.B
			if a > b {
				a, b = b, a
			}
			key := [2]int{a, b}
			if w, ok := min[key]; !ok || e.W < w {
				min[key] = e.W
			}
		}
		seen := map[[2]int]bool{}
		for _, e := range out {
			key := [2]int{e.A, e.B}
			if e.A > e.B || seen[key] {
				return false
			}
			seen[key] = true
			if e.W != min[key] {
				return false
			}
		}
		return len(seen) == len(min)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureTrees(t *testing.T) {
	// Star with center 0 over weighted edges; root at 0 → hops 1.
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 0, V: 2, W: 5}, {U: 2, V: 3, W: 1}})
	st := MeasureTrees(g, []int{0, 1, 2}, []int{0})
	if st.MaxHops != 2 {
		t.Fatalf("hops %d, want 2 (0-2-3)", st.MaxHops)
	}
	if st.MaxWeighted != 6 {
		t.Fatalf("weighted %v, want 6", st.MaxWeighted)
	}
	// Rooting at the far leaf flips the depths.
	st = MeasureTrees(g, []int{0, 1, 2}, []int{3})
	if st.MaxHops != 3 || st.MaxWeighted != 8 {
		t.Fatalf("from leaf: %+v", st)
	}
}

func TestMeasureTreesMultipleRoots(t *testing.T) {
	// Two disjoint paths; roots in each.
	g := graph.MustNew(6, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 3, V: 4, W: 4}})
	st := MeasureTrees(g, []int{0, 1, 2}, []int{0, 3})
	if st.MaxHops != 2 {
		t.Fatalf("hops %d", st.MaxHops)
	}
	if st.MaxWeighted != 4 {
		t.Fatalf("weighted %v", st.MaxWeighted)
	}
	// Empty forest: all roots at depth 0.
	st = MeasureTrees(g, nil, []int{0, 5})
	if st.MaxHops != 0 || st.MaxWeighted != 0 {
		t.Fatalf("empty forest stats %+v", st)
	}
}

// TestMinDedupWorkersMatchesSerial pins MinDedup against the comparator
// definition of Step C — sort the normalized edges by (A, B, W, Orig), keep
// each pair's first — at every worker count, with a retained sorter reused
// across calls. Edge ids run against input order and weights tie heavily,
// so the (W, Orig) minimum is rarely a pair's first edge in input order.
func TestMinDedupWorkersMatchesSerial(t *testing.T) {
	var rs par.RadixSorter
	f := func(seed uint64) bool {
		src := xrand.New(seed)
		n := src.Intn(4000) + 10
		edges := make([]QEdge, n)
		for i := range edges {
			edges[i] = QEdge{
				A:    src.Intn(40),
				B:    src.Intn(40),
				W:    float64(src.Intn(5)),
				Orig: n - 1 - i,
			}
		}
		norm := make([]QEdge, n)
		for i, e := range edges {
			norm[i] = QEdge{A: min(e.A, e.B), B: max(e.A, e.B), W: e.W, Orig: e.Orig}
		}
		sort.SliceStable(norm, func(i, j int) bool {
			a, b := norm[i], norm[j]
			if a.A != b.A {
				return a.A < b.A
			}
			if a.B != b.B {
				return a.B < b.B
			}
			if a.W != b.W {
				return a.W < b.W
			}
			return a.Orig < b.Orig
		})
		var want []QEdge
		for i, e := range norm {
			if i == 0 || e.A != norm[i-1].A || e.B != norm[i-1].B {
				want = append(want, e)
			}
		}
		for _, w := range []int{1, 2, 4, 8} {
			got := MinDedup(append([]QEdge(nil), edges...), w, &rs)
			if !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestContractWorkersMatchesSerial(t *testing.T) {
	const n = 3000
	mk := func() *Partition { return NewPartition(n) }
	relabel := make([]int32, n)
	for i := range relabel {
		switch i % 3 {
		case 0:
			relabel[i] = int32(i % 100)
		case 1:
			relabel[i] = int32((i + 7) % 100)
		default:
			relabel[i] = None
		}
	}
	serial, parallel := mk(), mk()
	if err := serial.ContractWorkers(relabel, 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := parallel.ContractWorkers(relabel, 100, 8); err != nil {
		t.Fatal(err)
	}
	if serial.Count() != parallel.Count() {
		t.Fatal("counts differ")
	}
	for v := 0; v < n; v++ {
		if serial.Super(v) != parallel.Super(v) {
			t.Fatalf("Super(%d) differs: %d vs %d", v, serial.Super(v), parallel.Super(v))
		}
	}
	// Validation still rejects out-of-range labels in parallel mode.
	bad := mk()
	if err := bad.ContractWorkers([]int32{int32(n)}, 1, 8); err == nil {
		t.Fatal("out-of-range relabel accepted")
	}
}
