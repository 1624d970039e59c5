package artifact

import (
	"os"

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
// validates every record; pass two streams the edge records in order while
// scattering each edge's two arcs into place with WriteAt. Everything else
// (layout, checksums, header, table and the atomic rename) is the container
// writer Write uses, so the output is byte-identical to Write of the parsed
// graph under Fingerprint{Algorithm: "graph"}, and a rejected input leaves
// no file behind.
func Convert(src, dst string) (ConvertResult, error) {
	// Pass 1: header + degree count.
	n, m, deg, err := convertScanDegrees(src)
	if err != nil {
		return ConvertResult{}, err
	}
	res := ConvertResult{N: n, M: m}
	w, err := create(dst, meta{Fingerprint: Fingerprint{Algorithm: "graph"}, N: n, M: m}, 0)
	if err != nil {
		return res, err
	}

	// cursor[v] is the next free arc slot for vertex v; until pass two
	// moves it, it is the CSR offset array. ScanEdges caps m at
	// math.MaxInt32/2, so every offset fits an int32.
	cursor := make([]int64, n+1)
	for v := 0; v < n; v++ {
		cursor[v+1] = cursor[v] + int64(deg[v])
	}
	w.section(secGraphOff)
	for _, c := range cursor {
		w.u32(uint32(c))
	}

	// Pass 2: sequential edge records + arc scatter.
	if err := convertWriteEdges(src, w, n, m, cursor); err != nil {
		w.af.Abort()
		return res, err
	}
	return res, w.commit()
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

// convertWriteEdges is pass two: each edge's record streamed in order, and
// its arc u → v and the reverse scattered with WriteAt, each to its
// vertex's next slot, advancing the cursors.
func convertWriteEdges(src string, w *writer, n, m int, cursor []int64) error {
	f, err := os.Open(src)
	if err != nil {
		return core.EdgeListErrorf(src, err, "reopening for pass two: %v", err)
	}
	defer f.Close()

	w.section(secGraphEdges)
	arcs := w.offset(secGraphArcs)
	var rec [16]byte
	scatter := func(v int, a graph.Arc) error {
		if _, err := w.af.WriteAt(appendArc(rec[:0], a), arcs+16*cursor[v]); err != nil {
			return core.ArtifactErrorf(w.path, "graph-arcs", err, "writing arcs: %v", err)
		}
		cursor[v]++
		return nil
	}
	return graph.ScanEdges(src, f, func(n2, m2 int) error {
		if n2 != n || m2 != m {
			return core.EdgeListErrorf(src, nil,
				"input changed between passes (header now n=%d m=%d, was n=%d m=%d)", n2, m2, n, m)
		}
		return nil
	}, func(id int, e graph.Edge) error {
		w.edge(e)
		if err := scatter(e.U, graph.Arc{To: e.V, Edge: id}); err != nil {
			return err
		}
		return scatter(e.V, graph.Arc{To: e.U, Edge: id})
	})
}
