package artifact

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"unsafe"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
)

// canCast reports whether this platform can reinterpret mapped file bytes
// as Go slices directly: little-endian, 64-bit int, and the in-memory
// layouts of graph.Edge / graph.Arc matching the on-disk records
// field-for-field. When any of this fails, Open silently takes the portable
// heap path instead — same answers, one copy.
var canCast = func() bool {
	var x uint16 = 1
	little := *(*byte)(unsafe.Pointer(&x)) == 1
	var e graph.Edge
	var a graph.Arc
	return little && strconv.IntSize == 64 &&
		unsafe.Sizeof(e) == 24 &&
		unsafe.Offsetof(e.U) == 0 && unsafe.Offsetof(e.V) == 8 && unsafe.Offsetof(e.W) == 16 &&
		unsafe.Sizeof(a) == 16 &&
		unsafe.Offsetof(a.To) == 0 && unsafe.Offsetof(a.Edge) == 8
}()

// OpenOptions tunes Open. The zero value is the right default everywhere
// outside tests and benchmarks.
type OpenOptions struct {
	// ForceHeap disables the mmap fast path, decoding the file into fresh
	// heap slices through the portable codec instead. Useful to pin that
	// both loaders agree, and as an escape hatch on filesystems where
	// mapping misbehaves.
	ForceHeap bool
}

// Artifact is an opened container: a ready-to-serve graph plus the
// provenance needed to trust it. When Mapped reports true, the graph's
// slices alias a read-only file mapping shared page-cache-resident with
// every other process mapping the same file; Close unmaps it, so an
// Artifact must outlive every Session serving from it.
type Artifact struct {
	path     string
	mapped   bool
	raw      []byte // the whole file (mapping or heap copy)
	meta     meta
	g        *graph.Graph
	edgeIDs  []int
	rows     *Rows
	checksum string
	closed   bool
}

// Open reads, verifies, and adopts the artifact at path. Every checksum in
// the file — header, section table, and each section — is verified before
// any section is decoded, so a failure is always a typed *core.ArtifactError
// (matching core.ErrArtifact) rather than a panic later. On 64-bit
// little-endian platforms with working mmap the graph is served zero-copy
// from a shared read-only mapping; elsewhere it is decoded into the heap.
func Open(path string, opt OpenOptions) (*Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, core.ArtifactErrorf(path, "", err, "opening: %v", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, core.ArtifactErrorf(path, "", err, "stat: %v", err)
	}
	size := st.Size()
	if size < headerSize {
		return nil, core.ArtifactErrorf(path, "header", nil,
			"file is %d bytes, smaller than the %d-byte header", size, headerSize)
	}
	if size > int64(math.MaxInt) {
		return nil, core.ArtifactErrorf(path, "", nil, "file is too large to address (%d bytes)", size)
	}

	a := &Artifact{path: path}
	if opt.ForceHeap || !canCast || !mmapSupported {
		a.raw = make([]byte, size)
		if _, err := f.ReadAt(a.raw, 0); err != nil {
			return nil, core.ArtifactErrorf(path, "", err, "reading: %v", err)
		}
	} else {
		m, err := mmapFile(f, int(size))
		if err != nil {
			return nil, core.ArtifactErrorf(path, "", err, "mmap: %v", err)
		}
		a.raw = m
		a.mapped = true
	}
	if err := a.parse(); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// parse verifies the container and adopts its sections into a.
func (a *Artifact) parse() error {
	raw, path := a.raw, a.path
	hdr := raw[:headerSize]
	if [8]byte(hdr[:8]) != magic {
		return core.ArtifactErrorf(path, "header", nil,
			"bad magic %q: not an mpcspanner artifact", hdr[:8])
	}
	if got, want := crc32.Checksum(hdr[:20], castagnoli), binary.LittleEndian.Uint32(hdr[20:]); got != want {
		return core.ArtifactErrorf(path, "header", nil,
			"header checksum mismatch (stored %08x, computed %08x)", want, got)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != FormatVersion {
		return core.ArtifactErrorf(path, "header", nil,
			"format version %d is newer than this build understands (max %d)", v, FormatVersion)
	}
	nsect := int(binary.LittleEndian.Uint32(hdr[12:]))
	if nsect < 1 || headerSize+nsect*sectionSize > len(raw) {
		return core.ArtifactErrorf(path, "section-table", nil,
			"section count %d does not fit a %d-byte file", nsect, len(raw))
	}
	table := raw[headerSize : headerSize+nsect*sectionSize]
	if got, want := crc32.Checksum(table, castagnoli), binary.LittleEndian.Uint32(hdr[16:]); got != want {
		return core.ArtifactErrorf(path, "section-table", nil,
			"section table checksum mismatch (stored %08x, computed %08x)", want, got)
	}

	// Verify every section's bounds and checksum before decoding anything.
	bySection := map[uint32][]byte{}
	for i := 0; i < nsect; i++ {
		e := table[i*sectionSize:]
		s := section{
			kind: binary.LittleEndian.Uint32(e[0:]),
			off:  binary.LittleEndian.Uint64(e[8:]),
			len:  binary.LittleEndian.Uint64(e[16:]),
			crc:  binary.LittleEndian.Uint32(e[24:]),
		}
		name := sectionName(s.kind)
		switch s.kind {
		case secMeta, secGraphEdges, secGraphOff, secGraphArcs, secEdgeIDs, secRowSources, secRowData:
		default:
			return core.ArtifactErrorf(path, name, nil, "unknown section kind %d", s.kind)
		}
		if _, dup := bySection[s.kind]; dup {
			return core.ArtifactErrorf(path, name, nil, "duplicate section")
		}
		if s.off%8 != 0 {
			return core.ArtifactErrorf(path, name, nil, "offset %d is not 8-byte aligned", s.off)
		}
		if s.off > uint64(len(raw)) || s.len > uint64(len(raw))-s.off {
			return core.ArtifactErrorf(path, name, nil,
				"section [%d,+%d) overruns the %d-byte file (truncated?)", s.off, s.len, len(raw))
		}
		payload := raw[s.off : s.off+s.len]
		if got := crc32.Checksum(payload, castagnoli); got != s.crc {
			return core.ArtifactErrorf(path, name, nil,
				"checksum mismatch (stored %08x, computed %08x)", s.crc, got)
		}
		bySection[s.kind] = payload
	}

	// The artifact checksum is the CRC of header+table: it covers the
	// version, every section's kind, length, and content CRC, so any
	// change anywhere in the file changes it. Identical on mapped and
	// heap opens of the same file.
	a.checksum = fmt.Sprintf("%08x", crc32.Checksum(raw[:headerSize+nsect*sectionSize], castagnoli))

	for _, kind := range []uint32{secMeta, secGraphEdges, secGraphOff, secGraphArcs} {
		if _, ok := bySection[kind]; !ok {
			return core.ArtifactErrorf(path, sectionName(kind), nil, "required section missing")
		}
	}
	if err := json.Unmarshal(bySection[secMeta], &a.meta); err != nil {
		return core.ArtifactErrorf(path, "meta", err, "decoding meta JSON: %v", err)
	}
	if a.meta.Format != FormatVersion {
		return core.ArtifactErrorf(path, "meta", nil,
			"meta declares format %d, header declares %d", a.meta.Format, FormatVersion)
	}

	edges, err := a.decodeEdges(bySection[secGraphEdges])
	if err != nil {
		return err
	}
	off, err := a.decodeInt32s(bySection[secGraphOff], "graph-off")
	if err != nil {
		return err
	}
	arcs, err := a.decodeArcs(bySection[secGraphArcs])
	if err != nil {
		return err
	}
	if len(edges) != a.meta.M || len(off) != a.meta.N+1 {
		return core.ArtifactErrorf(path, "meta", nil,
			"meta shape (n=%d m=%d) disagrees with sections (%d offsets, %d edges)",
			a.meta.N, a.meta.M, len(off), len(edges))
	}
	g, err := graph.Adopt(a.meta.N, edges, off, arcs)
	if err != nil {
		// Structural, so a nil cause: a bad file must not match ErrInvalidOption.
		return core.ArtifactErrorf(path, "graph-arcs", nil, "adopting graph: %v", err)
	}
	a.g = g

	if b, ok := bySection[secEdgeIDs]; ok {
		ids, err := a.decodeInts(b, "edge-ids")
		if err != nil {
			return err
		}
		a.edgeIDs = ids
	}

	srcB, hasSrc := bySection[secRowSources]
	dataB, hasData := bySection[secRowData]
	if hasSrc != hasData {
		return core.ArtifactErrorf(path, "row-sources", nil,
			"row-sources and row-data must appear together")
	}
	if hasSrc {
		srcs, err := a.decodeInts(srcB, "row-sources")
		if err != nil {
			return err
		}
		n := a.meta.N
		if len(dataB)%8 != 0 {
			return core.ArtifactErrorf(path, "row-data", nil,
				"section length %d is not a multiple of 8", len(dataB))
		}
		if len(dataB)/8 != len(srcs)*n {
			return core.ArtifactErrorf(path, "row-data", nil,
				"%d row values for %d sources over n=%d vertices", len(dataB)/8, len(srcs), n)
		}
		if len(srcs) != a.meta.Rows {
			return core.ArtifactErrorf(path, "row-sources", nil,
				"meta declares %d rows, section holds %d", a.meta.Rows, len(srcs))
		}
		for i, s := range srcs {
			if s < 0 || s >= n {
				return core.ArtifactErrorf(path, "row-sources", nil,
					"row source %d out of range [0,%d)", s, n)
			}
			if i > 0 && srcs[i-1] >= s {
				return core.ArtifactErrorf(path, "row-sources", nil,
					"row sources not strictly increasing at index %d", i)
			}
		}
		if a.mapped && canCast {
			data, err := a.decodeFloat64s(dataB)
			if err != nil {
				return err
			}
			a.rows = &Rows{n: n, srcs: srcs, data: data}
		} else {
			// Heap path: keep the encoded section bytes and decode rows
			// on demand, so opening a large artifact does not materialize
			// every frozen row up front.
			a.rows = &Rows{n: n, srcs: srcs, raw: dataB,
				lazy: make([]atomic.Pointer[[]float64], len(srcs))}
		}
	} else if a.meta.Rows != 0 {
		return core.ArtifactErrorf(path, "meta", nil,
			"meta declares %d rows but the sections are absent", a.meta.Rows)
	}
	return nil
}

// Graph returns the contained graph, ready to serve. For a mapped artifact
// the graph aliases the mapping: it is valid until Close and must never be
// mutated.
func (a *Artifact) Graph() *graph.Graph { return a.g }

// EdgeIDs returns the recorded spanner edge ids into the source graph
// (nil for bare graph artifacts). The slice may alias the read-only
// mapping; callers must not mutate it.
func (a *Artifact) EdgeIDs() []int { return a.edgeIDs }

// Fingerprint returns the determinism identity stored in the artifact.
func (a *Artifact) Fingerprint() Fingerprint { return a.meta.Fingerprint }

// Checksum returns the artifact's content identity: the hex CRC-32C of the
// header and section table, which transitively covers every byte of every
// section. Two files with equal checksums carry identical payloads.
func (a *Artifact) Checksum() string { return a.checksum }

// Mapped reports whether the artifact is served from a zero-copy read-only
// file mapping (true) or a heap copy (false).
func (a *Artifact) Mapped() bool { return a.mapped }

// Close releases the artifact's memory. For a mapped artifact this unmaps
// the file — every Graph, EdgeIDs, and row slice obtained from it becomes
// invalid; close only after the serving session is done. Close is
// idempotent.
func (a *Artifact) Close() error {
	if a.closed {
		return nil
	}
	a.closed = true
	raw := a.raw
	a.raw = nil
	if a.mapped {
		if err := munmapFile(raw); err != nil {
			return core.ArtifactErrorf(a.path, "", err, "munmap: %v", err)
		}
	}
	return nil
}

// SourceShape returns the (n, m) of the graph the build ran on, zero for
// bare graph artifacts.
func (a *Artifact) SourceShape() (n, m int) { return a.meta.SourceN, a.meta.SourceM }

// RowsOf returns a's precomputed oracle rows, or nil when it has none. A
// package-level function rather than a method so the facade's Artifact
// alias doesn't commit the internal Rows type to the public v1 surface.
func RowsOf(a *Artifact) *Rows { return a.rows }

// Rows is a frozen set of precomputed distance rows, servable behind the
// oracle cache (it implements oracle.RowSource). For mapped artifacts the
// data aliases the read-only file mapping zero-copy; for heap opens the
// encoded bytes are kept and each row is decoded the first time it is
// requested, memoized so repeated queries for the same source share one
// slice.
type Rows struct {
	n    int
	srcs []int
	data []float64                   // cast path: all rows, zero-copy
	raw  []byte                      // heap path: encoded row payload
	lazy []atomic.Pointer[[]float64] // heap path: rows decoded on demand
}

// Len returns the number of frozen rows.
func (r *Rows) Len() int {
	if r == nil {
		return 0
	}
	return len(r.srcs)
}

// Sources returns the frozen sources, sorted ascending. Callers must not
// mutate the slice.
func (r *Rows) Sources() []int {
	if r == nil {
		return nil
	}
	return r.srcs
}

// FrozenRow returns the precomputed distance row from src, or ok=false when
// src is not frozen. The returned slice is shared and read-only.
func (r *Rows) FrozenRow(src int) ([]float64, bool) {
	if r == nil {
		return nil, false
	}
	i := sort.SearchInts(r.srcs, src)
	if i >= len(r.srcs) || r.srcs[i] != src {
		return nil, false
	}
	if r.data != nil {
		return r.data[i*r.n : (i+1)*r.n : (i+1)*r.n], true
	}
	if p := r.lazy[i].Load(); p != nil {
		return *p, true
	}
	row := make([]float64, r.n)
	b := r.raw[i*r.n*8:]
	for j := range row {
		row[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[j*8:]))
	}
	// Racing decoders produce identical rows; keep whichever landed first
	// so every caller shares one slice.
	r.lazy[i].CompareAndSwap(nil, &row)
	return *r.lazy[i].Load(), true
}

// --- section decoding ---------------------------------------------------
//
// Each decode* has two paths: a zero-copy unsafe reinterpretation of the
// section bytes (mapped artifacts on platforms where canCast holds — the
// writer's encoding is exactly the in-memory layout there) and a portable
// explicit decode into fresh slices (heap opens and exotic platforms).
// ForceHeap always takes the second path even where casts would work, so
// the loader-equivalence test exercises genuinely different code.

func (a *Artifact) decodeEdges(b []byte) ([]graph.Edge, error) {
	if len(b)%24 != 0 {
		return nil, core.ArtifactErrorf(a.path, "graph-edges", nil,
			"section length %d is not a multiple of the 24-byte edge record", len(b))
	}
	n := len(b) / 24
	if n == 0 {
		return nil, nil
	}
	if a.mapped && canCast {
		return unsafe.Slice((*graph.Edge)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]graph.Edge, n)
	for i := range out {
		p := b[i*24:]
		out[i] = graph.Edge{
			U: int(int64(binary.LittleEndian.Uint64(p[0:]))),
			V: int(int64(binary.LittleEndian.Uint64(p[8:]))),
			W: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
		}
	}
	return out, nil
}

func (a *Artifact) decodeArcs(b []byte) ([]graph.Arc, error) {
	if len(b)%16 != 0 {
		return nil, core.ArtifactErrorf(a.path, "graph-arcs", nil,
			"section length %d is not a multiple of the 16-byte arc record", len(b))
	}
	n := len(b) / 16
	if n == 0 {
		return nil, nil
	}
	if a.mapped && canCast {
		return unsafe.Slice((*graph.Arc)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]graph.Arc, n)
	for i := range out {
		p := b[i*16:]
		out[i] = graph.Arc{
			To:   int(int64(binary.LittleEndian.Uint64(p[0:]))),
			Edge: int(int64(binary.LittleEndian.Uint64(p[8:]))),
		}
	}
	return out, nil
}

func (a *Artifact) decodeInt32s(b []byte, name string) ([]int32, error) {
	if len(b)%4 != 0 {
		return nil, core.ArtifactErrorf(a.path, name, nil,
			"section length %d is not a multiple of 4", len(b))
	}
	n := len(b) / 4
	if n == 0 {
		return nil, nil
	}
	if a.mapped && canCast {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out, nil
}

func (a *Artifact) decodeInts(b []byte, name string) ([]int, error) {
	if len(b)%8 != 0 {
		return nil, core.ArtifactErrorf(a.path, name, nil,
			"section length %d is not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if a.mapped && canCast {
		return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[i*8:])))
	}
	return out, nil
}

func (a *Artifact) decodeFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, core.ArtifactErrorf(a.path, "row-data", nil,
			"section length %d is not a multiple of 8", len(b))
	}
	n := len(b) / 8
	if n == 0 {
		return nil, nil
	}
	if a.mapped && canCast {
		return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}
