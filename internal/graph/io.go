package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"mpcspanner/internal/core"
)

// Write writes g in the native dialect of ScanEdges: the header
// "n <vertices> <edges>", then one "e <u> <v> <weight>" record per edge in
// id order. ReadFrom reads it back into the same graph.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d %d\n", g.n, len(g.edges)); err != nil {
		return err
	}
	for _, e := range g.edges {
		if _, err := fmt.Fprintf(bw, "e %d %d %g\n", e.U, e.V, e.W); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFrom reads an edge list in either dialect of ScanEdges into a Graph,
// whose edges then lie in New's weight domain. Every rejection is a
// *core.ArtifactError naming path and, for a bad line, its number.
func ReadFrom(path string, r io.Reader) (*Graph, error) {
	n := 0
	var edges []Edge
	err := ScanEdges(path, r, func(nv, _ int) error {
		n = nv
		return nil
	}, func(_ int, e Edge) error {
		edges = append(edges, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return New(n, edges)
}

// ScanEdges reads a text edge list in one of two dialects, chosen by its
// header line:
//
//	native  "n <n> <m>"    then m records "e <u> <v> <w>"  (0-based ids, Graph.Write)
//	DIMACS  "p sp <n> <m>" then m records "a <u> <v> <w>"  (1-based ids)
//
// Every line is split into fields at white space and must have exactly its
// dialect's fields. Blank lines and comments, whose first field is "c" or
// starts with "#", may appear anywhere. A header declaring more than
// math.MaxInt32 vertices, or more than math.MaxInt32/2 edges (2m arcs must
// fit int32 CSR offsets), fails before any callback runs.
//
// header receives the declared counts before any edge. edge receives each
// record in file order with its id, 0-based endpoints, and New's weight
// domain already checked. After the last line the declared edge count must
// equal the records found. An error a callback returns ends the scan and is
// returned as is; every other failure is a *core.ArtifactError from
// core.EdgeListErrorf, reading "invalid edge list <path>: …" and naming, for
// a bad line, its number.
func ScanEdges(path string, r io.Reader, header func(n, m int) error, edge func(id int, e Edge) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	fail := func(format string, args ...any) error {
		return core.EdgeListErrorf(path, nil, "line %d: %s", line, fmt.Sprintf(format, args...))
	}
	n, m, id, base := 0, 0, 0, 0
	tag := "" // the record tag; empty until the header is read
	var sum float64
	for sc.Scan() {
		line++
		text := sc.Text()
		f := strings.Fields(text)
		if len(f) == 0 || f[0] == "c" || strings.HasPrefix(f[0], "#") {
			continue
		}
		if tag == "" {
			switch {
			case f[0] == "n" && len(f) == 3:
				tag = "e"
			case f[0] == "p" && len(f) == 4 && f[1] == "sp":
				tag, base, f = "a", 1, f[1:]
			case f[0] == "n":
				return fail(`bad native header %q (want "n <n> <m>")`, text)
			case f[0] == "p":
				return fail(`bad DIMACS problem line %q (want "p sp <n> <m>")`, text)
			default:
				return fail("expected a header line before %q", text)
			}
			var err error
			if n, err = strconv.Atoi(f[1]); err == nil {
				m, err = strconv.Atoi(f[2])
			}
			switch {
			case err != nil:
				return fail("bad header counts in %q", text)
			case n < 0 || m < 0:
				return fail("negative header values n=%d m=%d", n, m)
			case n > math.MaxInt32:
				return fail("n=%d exceeds the int32 vertex-id limit %d", n, math.MaxInt32)
			case m > math.MaxInt32/2:
				return fail("m=%d exceeds the %d edges whose arcs int32 CSR offsets can index", m, math.MaxInt32/2)
			}
			if err := header(n, m); err != nil {
				return err
			}
			continue
		}
		if len(f) != 4 || f[0] != tag {
			return fail("unrecognized record %q (want \"%s <u> <v> <w>\")", text, tag)
		}
		u, errU := strconv.Atoi(f[1])
		v, errV := strconv.Atoi(f[2])
		w, errW := strconv.ParseFloat(f[3], 64)
		switch {
		case errU != nil:
			return fail("bad endpoint %q", f[1])
		case errV != nil:
			return fail("bad endpoint %q", f[2])
		case errW != nil:
			return fail("bad weight %q", f[3])
		}
		e := Edge{U: u - base, V: v - base, W: w}
		if err := checkEdge(n, e, &sum); err != nil {
			return fail("edge %d: %v", id, err)
		}
		if err := edge(id, e); err != nil {
			return err
		}
		id++
	}
	if err := sc.Err(); err != nil {
		return core.EdgeListErrorf(path, err, "reading: %v", err)
	}
	if tag == "" {
		return core.EdgeListErrorf(path, nil, "missing header line")
	}
	if id != m {
		return core.EdgeListErrorf(path, nil, "header declared %d edges, found %d", m, id)
	}
	return nil
}
