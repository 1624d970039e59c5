package graph

import "fmt"

// CSR exposes g's frozen adjacency index — the offset and arc slices New
// built — so the artifact layer can serialize a graph without re-deriving
// them. Callers must not mutate the returned slices.
func CSR(g *Graph) (off []int32, arcs []Arc) { return g.off, g.arcs }

// Adopt assembles a Graph around externally supplied slices — typically
// sections of a checksummed artifact file, possibly mmapped read-only —
// without rebuilding the CSR index. The slices are adopted, not copied: the
// Graph stays valid only as long as the backing memory does (close a mapped
// artifact only after its graph is out of use), and nothing may mutate them
// afterwards.
//
// Adopt validates structure in one O(n+m) pass: every edge in the weight
// domain (New's check, with New's *core.OptionError), offsets forming a
// monotone [0, 2m] prefix-sum, and every arc naming a real edge. A
// checksummed container already rules out corruption; this pass rules out a
// well-formed file describing an impossible graph, so a loaded artifact can
// never panic deep inside Dijkstra instead of failing at open.
func Adopt(n int, edges []Edge, off []int32, arcs []Arc) (*Graph, error) {
	if err := checkEdges(n, edges); err != nil {
		return nil, err
	}
	if len(off) != n+1 {
		return nil, fmt.Errorf("graph: offset slice has %d entries, want n+1 = %d", len(off), n+1)
	}
	if len(arcs) != 2*len(edges) {
		return nil, fmt.Errorf("graph: %d arcs for %d edges, want exactly 2 per edge", len(arcs), len(edges))
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("graph: offsets start at %d, want 0", off[0])
	}
	if int(off[n]) != len(arcs) {
		return nil, fmt.Errorf("graph: offsets end at %d, want %d", off[n], len(arcs))
	}
	for v := 0; v < n; v++ {
		if off[v] > off[v+1] {
			return nil, fmt.Errorf("graph: offsets decrease at vertex %d (%d > %d)", v, off[v], off[v+1])
		}
	}
	for i, a := range arcs {
		if a.Edge < 0 || a.Edge >= len(edges) {
			return nil, fmt.Errorf("graph: arc %d names edge %d, out of range [0,%d)", i, a.Edge, len(edges))
		}
		if e := edges[a.Edge]; a.To != e.U && a.To != e.V {
			return nil, fmt.Errorf("graph: arc %d points to %d, not an endpoint of edge %d", i, a.To, a.Edge)
		}
	}
	return &Graph{n: n, edges: edges, off: off, arcs: arcs}, nil
}
