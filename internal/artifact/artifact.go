// Package artifact is the build-once/serve-forever persistence layer: a
// versioned, checksummed, little-endian binary container for frozen CSR
// graphs, spanner build results, and optional precomputed oracle row sets —
// the paper's §7 regime (build once, query many) extended across process and
// machine boundaries. A replica that loads an artifact never re-runs
// construction on its hot path; it adopts the file's CSR sections directly,
// mmapped read-only where the platform allows, so every replica on a box
// shares one page-cache-resident copy and cold start is dominated by a
// checksum pass instead of a build.
//
// # On-disk layout (format version 1)
//
//	header        32 bytes, fixed
//	section table 32 bytes per section
//	sections      each starting at an 8-byte-aligned offset, zero-padded
//
// Header: magic "MPCSART\x01" (8 bytes), format version (uint32), section
// count (uint32), CRC-32C of the section table (uint32), CRC-32C of the
// header's own first 20 bytes (uint32), 8 reserved zero bytes. Every
// multi-byte integer in the file is little-endian.
//
// Section table entry: kind (uint32), reserved (uint32), byte offset
// (uint64), byte length (uint64), CRC-32C of the section bytes (uint32),
// reserved (uint32). Offsets are 8-byte-aligned so a mapped section can be
// reinterpreted as a []float64 / []int64-backed slice without copying.
//
// Section kinds:
//
//	1 meta        JSON: format echo, determinism fingerprint, shapes
//	2 graph-edges m × 24 bytes: u int64, v int64, w float64 (graph.Edge)
//	3 graph-off   (n+1) × 4 bytes: int32 CSR offsets
//	4 graph-arcs  2m × 16 bytes: to int64, edge int64 (graph.Arc)
//	5 edge-ids    k × 8 bytes: spanner edge ids into the source graph
//	6 row-sources r × 8 bytes: sorted sources with precomputed rows
//	7 row-data    r·n × 8 bytes: float64 distance rows, row i = source i
//
// Unknown section kinds are rejected (a version-1 reader reads only
// version-1 files; the version field, not kind-skipping, is the evolution
// mechanism — see DESIGN.md §11 for the version policy).
//
// # Writing
//
// One streaming writer produces every container. Write (a graph, its
// provenance and its rows, all in memory) and Convert (a text edge list
// that is never materialized) fill its sections through a buffered record
// stream; the writer owns the layout, the padding, the checksums, the
// header, the table and the atomic rename. Neither caller holds an encoded
// copy of a section, and a converted edge list is byte for byte the file
// Write gives its parsed graph.
//
// # Integrity and errors
//
// Open verifies the header CRC, the table CRC, and every section CRC before
// adopting anything, so a truncated download, a flipped bit, a foreign file,
// or a future format version is reported as a typed *core.ArtifactError
// (matching core.ErrArtifact under errors.Is) — never as a panic deep inside
// a query. The CRC pass reads every byte once; for a mapped artifact that is
// a sequential page-cache warm-up shared by subsequent queries.
package artifact

import (
	"fmt"
	"hash/crc32"
)

const (
	// FormatVersion is the container version this build writes and the
	// newest it reads. Readers reject newer files with a typed error;
	// older versions would be migrated here, explicitly, when version 2
	// exists.
	FormatVersion = 1

	headerSize  = 32
	sectionSize = 32
)

// magic identifies an artifact file. The trailing 0x01 byte is part of the
// magic, not the version: files from a hypothetical incompatible rewrite
// would change it, while compatible evolution bumps FormatVersion.
var magic = [8]byte{'M', 'P', 'C', 'S', 'A', 'R', 'T', 0x01}

// Section kinds.
const (
	secMeta       = 1
	secGraphEdges = 2
	secGraphOff   = 3
	secGraphArcs  = 4
	secEdgeIDs    = 5
	secRowSources = 6
	secRowData    = 7
)

// sectionName maps a kind to the name *core.ArtifactError reports.
func sectionName(kind uint32) string {
	switch kind {
	case secMeta:
		return "meta"
	case secGraphEdges:
		return "graph-edges"
	case secGraphOff:
		return "graph-off"
	case secGraphArcs:
		return "graph-arcs"
	case secEdgeIDs:
		return "edge-ids"
	case secRowSources:
		return "row-sources"
	case secRowData:
		return "row-data"
	}
	return fmt.Sprintf("kind-%d", kind)
}

// castagnoli is the CRC-32C table every checksum in the file uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// section is one parsed table entry.
type section struct {
	kind uint32
	off  uint64
	len  uint64
	crc  uint32
}

// Fingerprint is the determinism identity of the computation that produced
// an artifact: under the library's seed contract, equal fingerprints on equal
// inputs mean bit-identical results at any worker count. It is stored in the
// meta section and surfaced by serving daemons (/v1/info), so a fleet can
// verify every replica answers from the same build.
type Fingerprint struct {
	// Algorithm is the construction family ("mpc", "general", …; Serve's
	// Corollary 1.4 pipeline records "mpc", the build it runs), "exact"
	// for a session serving a graph as given, or "graph" for a bare
	// converted graph with no build attached.
	Algorithm string `json:"algorithm"`
	// Seed is the seed the build ran under.
	Seed uint64 `json:"seed"`
	// K and T are the structural parameters of the family (zero when the
	// family has none).
	K int `json:"k"`
	T int `json:"t"`
	// Gamma is the simulated machines' memory exponent (zero when unused).
	Gamma float64 `json:"gamma,omitempty"`
	// Workers is 0 in every file this version writes. Results do not
	// depend on the pool size, so the checksummed identity must not
	// either: one build saved at any worker count gives one file. The
	// field is kept so older files, which recorded the pool size, still
	// decode and report it.
	Workers int `json:"workers"`
}

// String renders the fingerprint in one greppable line.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%s/seed=%d/k=%d/t=%d/workers=%d", f.Algorithm, f.Seed, f.K, f.T, f.Workers)
}

// meta is the JSON payload of the meta section.
type meta struct {
	Format      int         `json:"format"`
	Fingerprint Fingerprint `json:"fingerprint"`

	// N and M are the contained graph's shape (the graph served after
	// load — for a build artifact, the spanner).
	N int `json:"n"`
	M int `json:"m"`

	// SourceN and SourceM record the shape of the graph the build ran on,
	// which the edge-ids section indexes into. Zero for bare graphs.
	SourceN int `json:"source_n,omitempty"`
	SourceM int `json:"source_m,omitempty"`

	// Rows is the number of precomputed oracle rows.
	Rows int `json:"rows,omitempty"`
}
