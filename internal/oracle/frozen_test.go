package oracle

import (
	"context"
	"math"
	"testing"

	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
)

// mapRows is a test RowSource backed by a map.
type mapRows map[int][]float64

func (m mapRows) FrozenRow(src int) ([]float64, bool) {
	row, ok := m[src]
	return row, ok
}

func frozenTestGraph(seed uint64) *graph.Graph {
	return graph.Connectify(graph.GNP(200, 0.04, graph.UniformWeight(1, 10), seed), 10)
}

// TestFrozenServesAheadOfCache pins the frozen-row contract: a frozen source
// is answered without a row fill (no miss), counts as a hit, and never
// becomes resident cache state; unfrozen sources fall through untouched.
func TestFrozenServesAheadOfCache(t *testing.T) {
	g := frozenTestGraph(1)
	frozen := mapRows{
		3: dist.Dijkstra(g, 3),
		7: dist.Dijkstra(g, 7),
	}
	o := New(g, Options{Frozen: frozen})

	for _, src := range []int{3, 7, 3} {
		got := mustRow(t, o, src)
		want := frozen[src]
		for v := range want {
			if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
				t.Fatalf("frozen row %d entry %d: got %v, want %v", src, v, got[v], want[v])
			}
		}
	}
	st := o.Stats()
	if st.Hits != 3 || st.Misses != 0 || st.Resident != 0 {
		t.Fatalf("after frozen-only queries: %+v, want 3 hits, 0 misses, 0 resident", st)
	}

	// An unfrozen source falls through to the normal miss path.
	want := dist.Dijkstra(g, 11)
	got := mustRow(t, o, 11)
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("fallthrough row entry %d: got %v, want %v", v, got[v], want[v])
		}
	}
	st = o.Stats()
	if st.Misses != 1 || st.Resident != 1 {
		t.Fatalf("after fallthrough: %+v, want 1 miss, 1 resident", st)
	}
}

// TestFrozenBatch pins that QueryMany's resident fast pass (peek) also sees
// frozen rows, so a batch over frozen sources runs no row fill at all.
func TestFrozenBatch(t *testing.T) {
	g := frozenTestGraph(2)
	frozen := mapRows{
		0: dist.Dijkstra(g, 0),
		5: dist.Dijkstra(g, 5),
	}
	o := New(g, Options{Frozen: frozen, Workers: 3})
	pairs := []Pair{{0, 10}, {5, 20}, {0, 30}, {5, 40}}
	got := mustQueryMany(t, o, pairs)
	for i, p := range pairs {
		if want := frozen[p.U][p.V]; math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("pair %d (%d,%d): got %v, want %v", i, p.U, p.V, got[i], want)
		}
	}
	if st := o.Stats(); st.Misses != 0 {
		t.Fatalf("batch over frozen sources ran %d row fills", st.Misses)
	}
}

// TestFrozenCtx pins that a point Query serves frozen rows too.
func TestFrozenCtx(t *testing.T) {
	g := frozenTestGraph(3)
	frozen := mapRows{4: dist.Dijkstra(g, 4)}
	o := New(g, Options{Frozen: frozen})
	d, err := o.Query(context.Background(), 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if want := frozen[4][9]; d != want {
		t.Fatalf("Query: got %v, want %v", d, want)
	}
}

// TestSnapshotRows pins the save-side contract: the snapshot returns exactly
// the resident rows, sorted by source, sharing the cached slices.
func TestSnapshotRows(t *testing.T) {
	g := frozenTestGraph(4)
	o := New(g, Options{})
	for _, src := range []int{9, 2, 17, 5} {
		mustRow(t, o, src)
	}
	srcs, rows := SnapshotRows(o)
	want := []int{2, 5, 9, 17}
	if len(srcs) != len(want) || len(rows) != len(want) {
		t.Fatalf("snapshot size: %d srcs, %d rows, want %d", len(srcs), len(rows), len(want))
	}
	for i, s := range want {
		if srcs[i] != s {
			t.Fatalf("snapshot sources %v, want %v", srcs, want)
		}
		ref := dist.Dijkstra(g, s)
		for v := range ref {
			if math.Float64bits(rows[i][v]) != math.Float64bits(ref[v]) {
				t.Fatalf("snapshot row %d entry %d: got %v, want %v", s, v, rows[i][v], ref[v])
			}
		}
	}
}

// TestSnapshotRowsEmpty pins that a cold oracle snapshots to nothing.
func TestSnapshotRowsEmpty(t *testing.T) {
	o := New(frozenTestGraph(5), Options{})
	srcs, rows := SnapshotRows(o)
	if len(srcs) != 0 || len(rows) != 0 {
		t.Fatalf("cold snapshot: %v, %d rows", srcs, len(rows))
	}
}
