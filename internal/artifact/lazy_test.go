package artifact

import (
	"path/filepath"
	"runtime"
	"testing"

	"mpcspanner/internal/graph"
)

// rowsPayload is a payload whose frozen rows dominate the file: rows×n
// float64s ≫ graph sections.
func rowsPayload(n, nrows int) Payload {
	g := graph.Connectify(graph.GNP(n, 4/float64(n), graph.UniformWeight(1, 50), 7), 50)
	srcs := make([]int, nrows)
	rows := make([][]float64, nrows)
	for i := range rows {
		srcs[i] = i * (n / nrows)
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(i*n + j)
		}
		rows[i] = row
	}
	return Payload{Graph: g, RowSources: srcs, Rows: rows}
}

// lazyRowsArtifact writes rowsPayload(n, nrows) and returns its path and rows.
func lazyRowsArtifact(t *testing.T, n, nrows int) (string, [][]float64) {
	t.Helper()
	p := rowsPayload(n, nrows)
	path := filepath.Join(t.TempDir(), "lazy.bin")
	if err := Write(path, p); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path, p.Rows
}

// TestWriteStreamsRows pins that Write streams its sections into the file
// instead of assembling an encoded copy in memory. The payload is 16 MiB of
// rows; a writer that held the encoded rows (or the whole file) would
// allocate at least that much, while the stream needs only its buffers.
func TestWriteStreamsRows(t *testing.T) {
	const n, nrows = 8192, 256
	p := rowsPayload(n, nrows)
	path := filepath.Join(t.TempDir(), "rows.art")

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := Write(path, p); err != nil {
		t.Fatalf("Write: %v", err)
	}
	runtime.ReadMemStats(&after)
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20); alloc > limit {
		t.Fatalf("Write allocated %d bytes for a %d-byte row payload (limit %d); it buffers instead of streaming",
			alloc, nrows*n*8, limit)
	}

	a, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer a.Close()
	r := RowsOf(a)
	for i, src := range p.RowSources {
		got, ok := r.FrozenRow(src)
		if !ok || len(got) != n || got[0] != p.Rows[i][0] || got[n-1] != p.Rows[i][n-1] {
			t.Fatalf("row %d did not round-trip", src)
		}
	}
}

// TestHeapOpenDecodesRowsLazily pins the ROADMAP item-2 fix: a ForceHeap
// open must not materialize every frozen row up front. The file is ~row
// data, so an eager decode would allocate at least 2× the file size (heap
// copy of the file + all decoded rows); the lazy loader stays well under.
func TestHeapOpenDecodesRowsLazily(t *testing.T) {
	const n, nrows = 4096, 64
	path, want := lazyRowsArtifact(t, n, nrows)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	a, err := Open(path, OpenOptions{ForceHeap: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer a.Close()
	runtime.ReadMemStats(&after)

	rowBytes := uint64(nrows * n * 8)
	alloc := after.TotalAlloc - before.TotalAlloc
	// One file copy plus graph decode plus slack; eager row decode would
	// add another rowBytes on top and trip this.
	if limit := rowBytes + rowBytes/2; alloc > limit {
		t.Fatalf("heap open allocated %d bytes for a %d-byte row payload; rows are being decoded eagerly (limit %d)",
			alloc, rowBytes, limit)
	}

	// On-demand decode still serves the right values, memoized: the second
	// request for a source returns the same slice with zero allocations.
	r := RowsOf(a)
	for i, src := range r.Sources() {
		got, ok := r.FrozenRow(src)
		if !ok {
			t.Fatalf("FrozenRow(%d): not found", src)
		}
		for j, v := range got {
			if v != want[i][j] {
				t.Fatalf("row %d[%d] = %v, want %v", src, j, v, want[i][j])
			}
		}
	}
	src := r.Sources()[nrows/2]
	first, _ := r.FrozenRow(src)
	if avg := testing.AllocsPerRun(100, func() {
		again, _ := r.FrozenRow(src)
		if &again[0] != &first[0] {
			t.Errorf("FrozenRow(%d) returned a fresh slice on a repeat call", src)
		}
	}); avg != 0 {
		t.Fatalf("repeat FrozenRow allocates %.1f times per call, want 0 (memoization broken)", avg)
	}
}
