package artifact

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
)

// ConvertResult summarizes a streaming conversion.
type ConvertResult struct {
	N, M int
}

// Convert streams a text edge list at src into a bare-graph artifact at
// dst without ever materializing the graph in memory: peak RAM is O(n)
// (a degree array and a write cursor per vertex), independent of m, so
// graphs far larger than RAM can be converted offline and then served
// straight from the mapping.
//
// Both passes read src with graph.ScanEdges: either of its dialects
// (native "n"/"e" or 1-based DIMACS "p sp"/"a", told apart by the header
// line), every edge held to graph.New's weight domain, and every rejected
// input failing with the *core.ArtifactError graph.ReadFrom returns for the
// same bytes. DIMACS files that list each undirected edge in both
// directions produce parallel edges (the library tolerates them; they cost
// space, not correctness) — deduplicate upstream if that matters.
//
// The conversion is two passes over src: pass one counts degrees and
// validates every record; pass two writes edge records and CSR offsets
// sequentially while scattering arcs into place with WriteAt. The arcs
// region is then re-read once, sequentially, to checksum it. Like Write,
// the output is assembled in a temp file and renamed into place.
func Convert(src, dst string) (ConvertResult, error) {
	var res ConvertResult

	// Pass 1: header + degree count.
	n, m, deg, err := convertScanDegrees(src)
	if err != nil {
		return res, err
	}
	res.N, res.M = n, m

	mj, err := json.Marshal(meta{
		Format:      FormatVersion,
		Fingerprint: Fingerprint{Algorithm: "graph"},
		N:           n,
		M:           m,
	})
	if err != nil {
		return res, core.ArtifactErrorf(dst, "meta", err, "encoding meta: %v", err)
	}

	// Fixed layout: meta, edges, off, arcs — offsets computable up front.
	type lay struct {
		off, len uint64
	}
	align := func(x uint64) uint64 { return (x + 7) &^ 7 }
	const nsect = 4
	base := align(uint64(headerSize + nsect*sectionSize))
	layMeta := lay{base, uint64(len(mj))}
	layEdges := lay{align(layMeta.off + layMeta.len), uint64(24 * m)}
	layOff := lay{align(layEdges.off + layEdges.len), uint64(4 * (n + 1))}
	layArcs := lay{align(layOff.off + layOff.len), uint64(16 * 2 * m)}
	total := layArcs.off + layArcs.len

	dir := filepath.Dir(dst)
	tmp, err := os.CreateTemp(dir, filepath.Base(dst)+".tmp*")
	if err != nil {
		return res, core.ArtifactErrorf(dst, "", err, "creating temp file: %v", err)
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	if err := tmp.Truncate(int64(total)); err != nil {
		return res, core.ArtifactErrorf(dst, "", err, "sizing temp file: %v", err)
	}

	// cursor[v] is the next free arc slot for vertex v; doubles as the
	// CSR offset array before the scatter starts.
	cursor := make([]int64, n+1)
	var acc int64
	for v := 0; v < n; v++ {
		cursor[v] = acc
		acc += int64(deg[v])
	}
	cursor[n] = acc

	// off section: the prefix sums, written before cursor starts moving.
	// ScanEdges caps m at math.MaxInt32/2, so every sum fits an int32.
	offBytes := make([]byte, layOff.len)
	for v := 0; v <= n; v++ {
		binary.LittleEndian.PutUint32(offBytes[v*4:], uint32(cursor[v]))
	}
	if _, err := tmp.WriteAt(offBytes, int64(layOff.off)); err != nil {
		return res, core.ArtifactErrorf(dst, "graph-off", err, "writing offsets: %v", err)
	}
	crcOff := crc32.Checksum(offBytes, castagnoli)
	offBytes = nil

	if _, err := tmp.WriteAt(mj, int64(layMeta.off)); err != nil {
		return res, core.ArtifactErrorf(dst, "meta", err, "writing meta: %v", err)
	}

	// Pass 2: sequential edge records + arc scatter.
	crcEdges, err := convertWriteEdges(src, dst, tmp, n, m, int64(layEdges.off), int64(layArcs.off), cursor)
	if err != nil {
		return res, err
	}

	// Re-read the arcs region sequentially for its checksum.
	crcArcs, err := checksumRegion(tmp, int64(layArcs.off), int64(layArcs.len))
	if err != nil {
		return res, core.ArtifactErrorf(dst, "graph-arcs", err, "checksumming arcs: %v", err)
	}

	// Header + table.
	sections := []section{
		{kind: secMeta, off: layMeta.off, len: layMeta.len, crc: crc32.Checksum(mj, castagnoli)},
		{kind: secGraphEdges, off: layEdges.off, len: layEdges.len, crc: crcEdges},
		{kind: secGraphOff, off: layOff.off, len: layOff.len, crc: crcOff},
		{kind: secGraphArcs, off: layArcs.off, len: layArcs.len, crc: crcArcs},
	}
	table := make([]byte, nsect*sectionSize)
	for i, s := range sections {
		e := table[i*sectionSize:]
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.len)
		binary.LittleEndian.PutUint32(e[24:], s.crc)
	}
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[12:], nsect)
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(table, castagnoli))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], castagnoli))
	if _, err := tmp.WriteAt(hdr, 0); err != nil {
		return res, core.ArtifactErrorf(dst, "header", err, "writing header: %v", err)
	}
	if _, err := tmp.WriteAt(table, headerSize); err != nil {
		return res, core.ArtifactErrorf(dst, "section-table", err, "writing section table: %v", err)
	}
	if err := tmp.Sync(); err != nil {
		return res, core.ArtifactErrorf(dst, "", err, "syncing: %v", err)
	}
	if err := tmp.Close(); err != nil {
		return res, core.ArtifactErrorf(dst, "", err, "closing: %v", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return res, core.ArtifactErrorf(dst, "", err, "renaming into place: %v", err)
	}
	return res, nil
}

// convertScanDegrees is pass one: full validation plus the degree tally.
func convertScanDegrees(src string) (n, m int, deg []int32, err error) {
	f, err := os.Open(src)
	if err != nil {
		return 0, 0, nil, core.EdgeListErrorf(src, err, "opening: %v", err)
	}
	defer f.Close()
	err = graph.ScanEdges(src, f, func(nv, mv int) error {
		n, m, deg = nv, mv, make([]int32, nv)
		return nil
	}, func(_ int, e graph.Edge) error {
		deg[e.U]++
		deg[e.V]++
		return nil
	})
	return n, m, deg, err
}

// convertWriteEdges is pass two: sequential 24-byte edge records (buffered)
// plus two 16-byte arc records per edge scattered with WriteAt, advancing
// the per-vertex cursors. Returns the edges section's CRC.
func convertWriteEdges(src, dst string, out *os.File, n, m int, edgesOff, arcsOff int64, cursor []int64) (uint32, error) {
	f, err := os.Open(src)
	if err != nil {
		return 0, core.EdgeListErrorf(src, err, "reopening for pass two: %v", err)
	}
	defer f.Close()

	crc := crc32.New(castagnoli)
	ew := bufio.NewWriterSize(&sectionWriter{f: out, off: edgesOff}, 1<<20)
	var edgeRec [24]byte
	var arcRec [16]byte
	err = graph.ScanEdges(src, f, func(n2, m2 int) error {
		if n2 != n || m2 != m {
			return core.EdgeListErrorf(src, nil,
				"input changed between passes (header now n=%d m=%d, was n=%d m=%d)", n2, m2, n, m)
		}
		return nil
	}, func(id int, e graph.Edge) error {
		binary.LittleEndian.PutUint64(edgeRec[0:], uint64(int64(e.U)))
		binary.LittleEndian.PutUint64(edgeRec[8:], uint64(int64(e.V)))
		binary.LittleEndian.PutUint64(edgeRec[16:], math.Float64bits(e.W))
		if _, err := ew.Write(edgeRec[:]); err != nil {
			return core.ArtifactErrorf(dst, "graph-edges", err, "writing edges: %v", err)
		}
		crc.Write(edgeRec[:])

		// Arc u → v and its reverse, each at its vertex's next slot.
		binary.LittleEndian.PutUint64(arcRec[0:], uint64(int64(e.V)))
		binary.LittleEndian.PutUint64(arcRec[8:], uint64(int64(id)))
		if _, err := out.WriteAt(arcRec[:], arcsOff+16*cursor[e.U]); err != nil {
			return core.ArtifactErrorf(dst, "graph-arcs", err, "writing arcs: %v", err)
		}
		cursor[e.U]++
		binary.LittleEndian.PutUint64(arcRec[0:], uint64(int64(e.U)))
		if _, err := out.WriteAt(arcRec[:], arcsOff+16*cursor[e.V]); err != nil {
			return core.ArtifactErrorf(dst, "graph-arcs", err, "writing arcs: %v", err)
		}
		cursor[e.V]++
		return nil
	})
	if err != nil {
		return 0, err
	}
	if err := ew.Flush(); err != nil {
		return 0, core.ArtifactErrorf(dst, "graph-edges", err, "flushing edges: %v", err)
	}
	return crc.Sum32(), nil
}

// sectionWriter adapts WriteAt to io.Writer for buffered sequential output
// into a region of the file, independent of the file's seek offset.
type sectionWriter struct {
	f   *os.File
	off int64
}

func (w *sectionWriter) Write(p []byte) (int, error) {
	n, err := w.f.WriteAt(p, w.off)
	w.off += int64(n)
	return n, err
}

// checksumRegion CRCs length bytes of f starting at off, reading
// sequentially through a buffer.
func checksumRegion(f *os.File, off, length int64) (uint32, error) {
	crc := crc32.New(castagnoli)
	if _, err := io.Copy(crc, io.NewSectionReader(f, off, length)); err != nil {
		return 0, err
	}
	return crc.Sum32(), nil
}
