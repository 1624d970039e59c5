package artifact

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
)

// Payload is everything Write persists. Graph is the only required field:
// the graph a loading session serves (for a build artifact, the spanner
// subgraph; for a converted input, the input itself).
type Payload struct {
	// Graph is the graph to freeze. Required.
	Graph *graph.Graph

	// EdgeIDs are the spanner's edge ids into the source graph, recorded
	// for provenance (sorted ascending, as BuildResult reports them).
	// Optional.
	EdgeIDs []int

	// SourceN and SourceM record the shape of the graph the build ran on.
	// Zero when the artifact is a bare graph.
	SourceN, SourceM int

	// Fingerprint identifies the computation that produced the payload.
	Fingerprint Fingerprint

	// RowSources and Rows carry precomputed oracle rows: Rows[i] is the
	// full distance row from RowSources[i], length Graph.N(). Write sorts
	// the pairs by source, so callers can pass them in any order.
	// Optional; both or neither.
	RowSources []int
	Rows       [][]float64
}

// Write serializes p to path in artifact format version 1. It streams the
// records straight from the graph, its CSR, the edge ids and the rows (in
// source order) through the container writer that Convert also uses, so it
// holds no encoded copy of any section. The file is staged next to path and
// renamed into place, so a crashed writer never leaves a half-written
// artifact where a loader will find it. Output bytes are a pure function of
// the payload — byte-identical payloads give byte-identical files, which
// makes the file checksum a usable build identity.
func Write(path string, p Payload) error {
	if p.Graph == nil {
		return core.ArtifactErrorf(path, "", nil, "cannot save a nil graph")
	}
	if len(p.RowSources) != len(p.Rows) {
		return core.ArtifactErrorf(path, "row-sources", nil,
			"%d row sources for %d rows", len(p.RowSources), len(p.Rows))
	}
	g := p.Graph
	order, err := rowOrder(path, g.N(), p.RowSources, p.Rows)
	if err != nil {
		return err
	}
	w, err := create(path, meta{Fingerprint: p.Fingerprint, N: g.N(), M: g.M(),
		SourceN: p.SourceN, SourceM: p.SourceM, Rows: len(order)}, len(p.EdgeIDs))
	if err != nil {
		return err
	}
	off, arcs := graph.CSR(g)
	w.section(secGraphEdges)
	for _, e := range g.Edges() {
		w.edge(e)
	}
	w.section(secGraphOff)
	for _, o := range off {
		w.u32(uint32(o))
	}
	w.section(secGraphArcs)
	for _, a := range arcs {
		w.arc(a)
	}
	if len(p.EdgeIDs) > 0 {
		w.section(secEdgeIDs)
		for _, id := range p.EdgeIDs {
			w.u64(uint64(int64(id)))
		}
	}
	if len(order) > 0 {
		w.section(secRowSources)
		for _, i := range order {
			w.u64(uint64(int64(p.RowSources[i])))
		}
		w.section(secRowData)
		for _, i := range order {
			for _, x := range p.Rows[i] {
				w.u64(math.Float64bits(x))
			}
		}
	}
	return w.commit()
}

// rowOrder validates the precomputed rows and returns their indices ordered
// by source, duplicates rejected.
func rowOrder(path string, n int, srcs []int, rows [][]float64) ([]int, error) {
	order := make([]int, len(srcs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return srcs[order[a]] < srcs[order[b]] })
	for i, idx := range order {
		s := srcs[idx]
		if s < 0 || s >= n {
			return nil, core.ArtifactErrorf(path, "row-sources", nil,
				"row source %d out of range [0,%d)", s, n)
		}
		if i > 0 && s == srcs[order[i-1]] {
			return nil, core.ArtifactErrorf(path, "row-sources", nil,
				"duplicate row source %d", s)
		}
		if len(rows[idx]) != n {
			return nil, core.ArtifactErrorf(path, "row-data", nil,
				"row for source %d has %d entries, want n = %d", s, len(rows[idx]), n)
		}
	}
	return order, nil
}

// writer is the one writer of the artifact container, behind both Write and
// Convert. It owns the layout, the padding, the checksums, the header, the
// table and the atomic commit. Its callers only fill sections: through the
// buffered record stream (section, then edge, arc, u32 or u64), or, for
// Convert's arc scatter, through the staged file's WriteAt at offset(kind).
type writer struct {
	path string
	af   *AtomicFile
	secs []section // the layout, in table order
	at   *io.OffsetWriter
	bw   *bufio.Writer
	rec  [24]byte // one encoded record
}

// create stages an artifact at path for a graph of md's shape, nIDs spanner
// edge ids and md.Rows frozen rows. It lays the sections out in table order,
// each 8-byte-aligned behind the previous one and the first behind the header
// and table, and sizes the staged file to the layout's end, so a trailing
// empty section (the arcs of an edgeless graph) still lies inside the file.
// The meta section is encoded and written here, its one encoding.
func create(path string, md meta, nIDs int) (*writer, error) {
	md.Format = FormatVersion
	mj, err := json.Marshal(md)
	if err != nil {
		return nil, core.ArtifactErrorf(path, "meta", err, "encoding meta: %v", err)
	}
	secs := []section{
		{kind: secMeta, len: uint64(len(mj))},
		{kind: secGraphEdges, len: 24 * uint64(md.M)},
		{kind: secGraphOff, len: 4 * uint64(md.N+1)},
		{kind: secGraphArcs, len: 32 * uint64(md.M)},
	}
	if nIDs > 0 {
		secs = append(secs, section{kind: secEdgeIDs, len: 8 * uint64(nIDs)})
	}
	if md.Rows > 0 {
		secs = append(secs, section{kind: secRowSources, len: 8 * uint64(md.Rows)},
			section{kind: secRowData, len: 8 * uint64(md.Rows) * uint64(md.N)})
	}
	end := uint64(headerSize + sectionSize*len(secs))
	for i := range secs {
		secs[i].off = (end + 7) &^ 7
		end = secs[i].off + secs[i].len
	}

	af, err := CreateAtomic(path)
	if err != nil {
		return nil, err
	}
	if err := af.f.Truncate(int64(end)); err != nil {
		af.Abort()
		return nil, core.ArtifactErrorf(path, "", err, "sizing temp file: %v", err)
	}
	at := io.NewOffsetWriter(af.f, 0)
	w := &writer{path: path, af: af, secs: secs, at: at, bw: bufio.NewWriterSize(at, 1<<20)}
	w.section(secMeta)
	w.put(mj)
	return w, nil
}

// offset returns the file offset of the section of the given kind, which
// the layout must hold.
func (w *writer) offset(kind uint32) int64 {
	for _, s := range w.secs {
		if s.kind == kind {
			return int64(s.off)
		}
	}
	panic(fmt.Sprintf("artifact: the layout has no %s section", sectionName(kind)))
}

// section points the record stream at the start of the section of the given
// kind. A failed flush sticks in the stream, and commit reports it; a seek
// to a non-negative offset cannot fail.
func (w *writer) section(kind uint32) {
	_ = w.bw.Flush()
	_, _ = w.at.Seek(w.offset(kind), io.SeekStart)
}

// put appends encoded bytes to the stream. A failed write sticks in the
// stream, and commit reports it.
func (w *writer) put(b []byte) { _, _ = w.bw.Write(b) }

// The stream's record writers. They and the two append encoders below are
// the single definition of the on-disk element encodings: the heap loader in
// read.go is their inverse, and the mmap loader's unsafe casts are checked
// against them by TestMappedVsHeapIdentical.

func (w *writer) edge(e graph.Edge) { w.put(appendEdge(w.rec[:0], e)) }
func (w *writer) arc(a graph.Arc)   { w.put(appendArc(w.rec[:0], a)) }
func (w *writer) u32(x uint32)      { w.put(binary.LittleEndian.AppendUint32(w.rec[:0], x)) }
func (w *writer) u64(x uint64)      { w.put(binary.LittleEndian.AppendUint64(w.rec[:0], x)) }

func appendEdge(b []byte, e graph.Edge) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.U)))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(e.V)))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(e.W))
}

func appendArc(b []byte, a graph.Arc) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(a.To)))
	return binary.LittleEndian.AppendUint64(b, uint64(int64(a.Edge)))
}

// commit finishes the staged file and renames it over path. On every error
// path it aborts instead, so a failed write leaves no file behind.
func (w *writer) commit() error {
	if err := w.finish(); err != nil {
		w.af.Abort()
		return err
	}
	return w.af.Commit()
}

// finish flushes the record stream, checksums every section by reading it
// back from the staged file — the one CRC path, which Convert's scattered
// arcs need anyway — and writes the table and the header.
func (w *writer) finish() error {
	if err := w.bw.Flush(); err != nil {
		return core.ArtifactErrorf(w.path, "", err, "writing: %v", err)
	}
	buf := make([]byte, 64<<10)
	head := make([]byte, headerSize, headerSize+sectionSize*len(w.secs))
	for _, s := range w.secs {
		crc := NewChecksum()
		if _, err := io.CopyBuffer(crc, io.NewSectionReader(w.af.f, int64(s.off), int64(s.len)), buf); err != nil {
			return core.ArtifactErrorf(w.path, sectionName(s.kind), err, "checksumming: %v", err)
		}
		head = binary.LittleEndian.AppendUint32(head, s.kind)
		head = binary.LittleEndian.AppendUint32(head, 0)
		head = binary.LittleEndian.AppendUint64(head, s.off)
		head = binary.LittleEndian.AppendUint64(head, s.len)
		head = binary.LittleEndian.AppendUint32(head, crc.Sum32())
		head = binary.LittleEndian.AppendUint32(head, 0)
	}
	copy(head, magic[:])
	binary.LittleEndian.PutUint32(head[8:], FormatVersion)
	binary.LittleEndian.PutUint32(head[12:], uint32(len(w.secs)))
	binary.LittleEndian.PutUint32(head[16:], Checksum(head[headerSize:]))
	binary.LittleEndian.PutUint32(head[20:], Checksum(head[:20]))
	if _, err := w.af.WriteAt(head, 0); err != nil {
		return core.ArtifactErrorf(w.path, "header", err, "writing header: %v", err)
	}
	return nil
}
