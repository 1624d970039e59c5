package artifact

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcspanner/internal/core"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
)

// testGraph is a small connected weighted graph with deterministic shape.
func testGraph(t *testing.T, n int, seed uint64) *graph.Graph {
	t.Helper()
	return graph.Connectify(graph.GNP(n, 8/float64(n), graph.UniformWeight(1, 50), seed), 50)
}

// testPayload saves a representative payload (graph + edge ids + fingerprint
// + two rows) and returns its path.
func testPayload(t *testing.T, g *graph.Graph) (string, Payload) {
	t.Helper()
	n := g.N()
	p := Payload{
		Graph:       g,
		EdgeIDs:     []int{1, 3, 4, 8},
		SourceN:     n,
		SourceM:     g.M() + 17,
		Fingerprint: Fingerprint{Algorithm: "mpc", Seed: 7, K: 9, T: 3, Workers: 4},
		RowSources:  []int{5, 0}, // deliberately unsorted; Write must sort
		Rows:        [][]float64{dist.Dijkstra(g, 5), dist.Dijkstra(g, 0)},
	}
	path := filepath.Join(t.TempDir(), "a.art")
	if err := Write(path, p); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path, p
}

// sameGraph asserts two graphs are structurally identical: vertex count,
// edge list (ids, endpoints, weight bits), and adjacency.
func sameGraph(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape mismatch: got n=%d m=%d, want n=%d m=%d", got.N(), got.M(), want.N(), want.M())
	}
	we, ge := want.Edges(), got.Edges()
	for i := range we {
		if we[i].U != ge[i].U || we[i].V != ge[i].V ||
			math.Float64bits(we[i].W) != math.Float64bits(ge[i].W) {
			t.Fatalf("edge %d mismatch: got %+v, want %+v", i, ge[i], we[i])
		}
	}
	for v := 0; v < want.N(); v++ {
		wa, ga := want.Adj(v), got.Adj(v)
		if len(wa) != len(ga) {
			t.Fatalf("vertex %d degree mismatch: got %d, want %d", v, len(ga), len(wa))
		}
		for j := range wa {
			if wa[j] != ga[j] {
				t.Fatalf("vertex %d arc %d mismatch: got %+v, want %+v", v, j, ga[j], wa[j])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	g := testGraph(t, 400, 3)
	path, p := testPayload(t, g)
	for _, tc := range []struct {
		name string
		opt  OpenOptions
	}{
		{"default", OpenOptions{}},
		{"heap", OpenOptions{ForceHeap: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Open(path, tc.opt)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer a.Close()
			sameGraph(t, g, a.Graph())
			if fp := a.Fingerprint(); fp != p.Fingerprint {
				t.Errorf("fingerprint: got %+v, want %+v", fp, p.Fingerprint)
			}
			if ids := a.EdgeIDs(); len(ids) != len(p.EdgeIDs) {
				t.Fatalf("edge ids: got %v, want %v", ids, p.EdgeIDs)
			} else {
				for i := range ids {
					if ids[i] != p.EdgeIDs[i] {
						t.Fatalf("edge ids: got %v, want %v", ids, p.EdgeIDs)
					}
				}
			}
			if sn, sm := a.SourceShape(); sn != p.SourceN || sm != p.SourceM {
				t.Errorf("source shape: got (%d,%d), want (%d,%d)", sn, sm, p.SourceN, p.SourceM)
			}
			rows := RowsOf(a)
			if rows.Len() != 2 {
				t.Fatalf("rows: got %d, want 2", rows.Len())
			}
			for _, src := range []int{0, 5} {
				got, ok := rows.FrozenRow(src)
				if !ok {
					t.Fatalf("row %d missing", src)
				}
				want := dist.Dijkstra(g, src)
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("row %d entry %d: got %v, want %v", src, v, got[v], want[v])
					}
				}
			}
			if _, ok := rows.FrozenRow(1); ok {
				t.Error("FrozenRow(1) reported a row that was never saved")
			}
		})
	}
}

// TestMappedVsHeapIdentical pins the two loaders against each other: same
// checksum, same graph, same distances from every source of a sample.
func TestMappedVsHeapIdentical(t *testing.T) {
	g := testGraph(t, 300, 9)
	path, _ := testPayload(t, g)
	am, err := Open(path, OpenOptions{})
	if err != nil {
		t.Fatalf("Open mapped: %v", err)
	}
	defer am.Close()
	ah, err := Open(path, OpenOptions{ForceHeap: true})
	if err != nil {
		t.Fatalf("Open heap: %v", err)
	}
	defer ah.Close()
	if am.Checksum() != ah.Checksum() {
		t.Errorf("checksums differ: mapped %s, heap %s", am.Checksum(), ah.Checksum())
	}
	if !am.Mapped() && mmapSupported && canCast {
		t.Error("default Open did not map on a platform that supports it")
	}
	if ah.Mapped() {
		t.Error("ForceHeap still mapped")
	}
	sameGraph(t, ah.Graph(), am.Graph())
	for src := 0; src < g.N(); src += 37 {
		rm, rh := dist.Dijkstra(am.Graph(), src), dist.Dijkstra(ah.Graph(), src)
		for v := range rm {
			if math.Float64bits(rm[v]) != math.Float64bits(rh[v]) {
				t.Fatalf("distance (%d,%d) differs between loaders: %v vs %v", src, v, rm[v], rh[v])
			}
		}
	}
}

// TestWriteDeterministic pins that equal payloads give byte-identical files,
// which is what makes Checksum a usable build identity.
func TestWriteDeterministic(t *testing.T) {
	g := testGraph(t, 200, 4)
	p1, _ := testPayload(t, g)
	p2, _ := testPayload(t, g)
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("two writes of the same payload produced different bytes")
	}
}

// mutate writes a copy of path with fn applied to its bytes and returns the
// copy's path.
func mutate(t *testing.T, path string, fn func([]byte)) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fn(b)
	out := filepath.Join(t.TempDir(), "mutated.art")
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// wantArtifactError opens path and asserts the typed-error contract: an
// error matching core.ErrArtifact and not core.ErrInvalidOption, carrying a
// *core.ArtifactError whose Section and Reason match, and never a panic.
func wantArtifactError(t *testing.T, path, section, reasonSub string) {
	t.Helper()
	for _, opt := range []OpenOptions{{}, {ForceHeap: true}} {
		a, err := Open(path, opt)
		if err == nil {
			a.Close()
			t.Fatalf("Open(%v) accepted a damaged artifact", opt)
		}
		if !errors.Is(err, core.ErrArtifact) || errors.Is(err, core.ErrInvalidOption) {
			t.Fatalf("error does not match core.ErrArtifact alone: %v", err)
		}
		var ae *core.ArtifactError
		if !errors.As(err, &ae) {
			t.Fatalf("error is not a *core.ArtifactError: %v", err)
		}
		if ae.Section != section {
			t.Errorf("section: got %q, want %q (err: %v)", ae.Section, section, err)
		}
		if !strings.Contains(ae.Reason, reasonSub) {
			t.Errorf("reason %q does not contain %q", ae.Reason, reasonSub)
		}
	}
}

// refixHeaderCRC recomputes the header checksum after a test deliberately
// edits header fields, so the edited field itself — not the CRC — is what
// Open trips on.
func refixHeaderCRC(b []byte) {
	binary.LittleEndian.PutUint32(b[20:], crc32.Checksum(b[:20], castagnoli))
}

// refixTableCRC is refixHeaderCRC after an edit to the section table.
func refixTableCRC(b []byte) {
	nsect := binary.LittleEndian.Uint32(b[12:])
	table := b[headerSize : headerSize+int(nsect)*sectionSize]
	binary.LittleEndian.PutUint32(b[16:], crc32.Checksum(table, castagnoli))
	refixHeaderCRC(b)
}

func TestOpenRejectsDamage(t *testing.T) {
	g := testGraph(t, 150, 5)
	path, _ := testPayload(t, g)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("missing file", func(t *testing.T) {
		_, err := Open(filepath.Join(t.TempDir(), "nope.art"), OpenOptions{})
		if !errors.Is(err, core.ErrArtifact) {
			t.Fatalf("want ErrArtifact, got %v", err)
		}
		if !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("missing file should still unwrap to fs.ErrNotExist: %v", err)
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		p := mutate(t, path, func(b []byte) { b[0] = 'X' })
		wantArtifactError(t, p, "header", "magic")
	})
	t.Run("shorter than header", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "tiny.art")
		if err := os.WriteFile(p, whole[:headerSize-5], 0o644); err != nil {
			t.Fatal(err)
		}
		wantArtifactError(t, p, "header", "smaller than")
	})
	t.Run("truncated mid section", func(t *testing.T) {
		p := filepath.Join(t.TempDir(), "trunc.art")
		if err := os.WriteFile(p, whole[:len(whole)-100], 0o644); err != nil {
			t.Fatal(err)
		}
		// The row-data section is last, so it is the one that overruns.
		wantArtifactError(t, p, "row-data", "truncated")
	})
	t.Run("future version", func(t *testing.T) {
		p := mutate(t, path, func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], FormatVersion+41)
			refixHeaderCRC(b)
		})
		wantArtifactError(t, p, "header", "newer than this build")
	})
	t.Run("flipped header byte", func(t *testing.T) {
		p := mutate(t, path, func(b []byte) { b[13] ^= 0xff })
		wantArtifactError(t, p, "header", "checksum mismatch")
	})
	t.Run("flipped table byte", func(t *testing.T) {
		p := mutate(t, path, func(b []byte) { b[headerSize+24] ^= 0x01 })
		wantArtifactError(t, p, "section-table", "checksum mismatch")
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		// First section is meta, placed right after the table; flip a byte
		// deep in the file body instead to land in a graph section.
		p := mutate(t, path, func(b []byte) { b[len(b)/2] ^= 0x40 })
		a, err := Open(p, OpenOptions{})
		if err == nil {
			a.Close()
			t.Fatal("accepted a flipped payload byte")
		}
		var ae *core.ArtifactError
		if !errors.As(err, &ae) || !strings.Contains(ae.Reason, "checksum mismatch") {
			t.Fatalf("want a section checksum mismatch, got %v", err)
		}
	})
	t.Run("unknown section kind", func(t *testing.T) {
		p := mutate(t, path, func(b []byte) {
			binary.LittleEndian.PutUint32(b[headerSize:], 250)
			// Refix the table CRC so the kind check itself is what fires.
			refixTableCRC(b)
		})
		wantArtifactError(t, p, "kind-250", "unknown section kind")
	})
	t.Run("checksummed infinite weight", func(t *testing.T) {
		// Every checksum holds, but edge 0 weighs +Inf: graph.Adopt's
		// weight-domain check is what must fire.
		p := mutate(t, path, func(b []byte) {
			for i := 0; i < int(binary.LittleEndian.Uint32(b[12:])); i++ {
				e := b[headerSize+i*sectionSize:]
				if binary.LittleEndian.Uint32(e) == secGraphEdges {
					off, n := binary.LittleEndian.Uint64(e[8:]), binary.LittleEndian.Uint64(e[16:])
					binary.LittleEndian.PutUint64(b[off+16:], math.Float64bits(math.Inf(1)))
					binary.LittleEndian.PutUint32(e[24:], crc32.Checksum(b[off:off+n], castagnoli))
				}
			}
			refixTableCRC(b)
		})
		wantArtifactError(t, p, "graph-arcs", "infinite weight")
	})
}

func TestWriteValidation(t *testing.T) {
	g := testGraph(t, 50, 2)
	dir := t.TempDir()
	row := dist.Dijkstra(g, 0)
	cases := []struct {
		name string
		p    Payload
	}{
		{"nil graph", Payload{}},
		{"row count mismatch", Payload{Graph: g, RowSources: []int{0, 1}, Rows: [][]float64{row}}},
		{"row source out of range", Payload{Graph: g, RowSources: []int{50}, Rows: [][]float64{row}}},
		{"duplicate row source", Payload{Graph: g, RowSources: []int{0, 0}, Rows: [][]float64{row, row}}},
		{"short row", Payload{Graph: g, RowSources: []int{0}, Rows: [][]float64{row[:10]}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Write(filepath.Join(dir, "bad.art"), tc.p)
			if !errors.Is(err, core.ErrArtifact) {
				t.Fatalf("want ErrArtifact, got %v", err)
			}
		})
	}
}

// TestWriteAtomic pins that a failed or interrupted write can never leave a
// partial file at the destination path: Write assembles elsewhere and
// renames.
func TestWriteAtomic(t *testing.T) {
	g := testGraph(t, 50, 2)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.art")
	if err := Write(path, Payload{Graph: g}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "a.art" {
		t.Fatalf("directory not clean after Write: %v", ents)
	}
}
