package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
)

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConvertNative pins that the streaming converter produces the same
// graph as the in-memory path: render a GNP graph to the native text format,
// Convert it, and compare against graph.ReadFrom of the same text.
func TestConvertNative(t *testing.T) {
	g := testGraph(t, 250, 11)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	src := writeFile(t, "g.txt", buf.String())
	dst := filepath.Join(t.TempDir(), "g.art")

	res, err := Convert(src, dst)
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	if res.N != g.N() || res.M != g.M() {
		t.Fatalf("ConvertResult: got n=%d m=%d, want n=%d m=%d", res.N, res.M, g.N(), g.M())
	}

	want, err := graph.ReadFrom(src, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []OpenOptions{{}, {ForceHeap: true}} {
		a, err := Open(dst, opt)
		if err != nil {
			t.Fatalf("Open(%v): %v", opt, err)
		}
		sameGraph(t, want, a.Graph())
		if fp := a.Fingerprint(); fp.Algorithm != "graph" {
			t.Errorf("converted fingerprint algorithm: got %q, want \"graph\"", fp.Algorithm)
		}
		if RowsOf(a).Len() != 0 {
			t.Error("converted artifact should carry no rows")
		}
		a.Close()
	}
}

// TestConvertDIMACS feeds the 1-based DIMACS grammar and checks the ids come
// out normalized to 0-based.
func TestConvertDIMACS(t *testing.T) {
	src := writeFile(t, "g.gr", strings.Join([]string{
		"c a DIMACS shortest-path instance",
		"p sp 4 3",
		"a 1 2 1.5",
		"c mid-file comment",
		"a 2 3 2",
		"a 3 4 0.25",
		"",
	}, "\n"))
	dst := filepath.Join(t.TempDir(), "g.art")
	res, err := Convert(src, dst)
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	if res.N != 4 || res.M != 3 {
		t.Fatalf("got n=%d m=%d, want n=4 m=3", res.N, res.M)
	}
	a, err := Open(dst, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	want := []graph.Edge{{U: 0, V: 1, W: 1.5}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 0.25}}
	got := a.Graph().Edges()
	if len(got) != len(want) {
		t.Fatalf("edges: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestConvertMatchesWrite pins the stronger property: converting a text
// rendering of g yields the byte-identical file that Write(Payload{Graph})
// of the parsed graph yields, so the two construction paths share one
// checksum identity.
func TestConvertMatchesWrite(t *testing.T) {
	g := testGraph(t, 180, 21)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := graph.ReadFrom("g.txt", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	conv := filepath.Join(dir, "conv.art")
	wrote := filepath.Join(dir, "wrote.art")
	if _, err := Convert(writeFile(t, "g.txt", buf.String()), conv); err != nil {
		t.Fatal(err)
	}
	if err := Write(wrote, Payload{Graph: parsed, Fingerprint: Fingerprint{Algorithm: "graph"}}); err != nil {
		t.Fatal(err)
	}
	cb, err := os.ReadFile(conv)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := os.ReadFile(wrote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb, wb) {
		t.Fatalf("Convert and Write disagree: %d vs %d bytes", len(cb), len(wb))
	}
}

// edgeListCase is one input of the grammar corpus for both loaders of the
// text edge list; wantSub is "" for an accepted input, else a substring of
// the rejection both loaders must report.
type edgeListCase struct {
	name, content, wantSub string
}

// edgeListAccepted and edgeListRejected are the two halves of the corpus.
var edgeListAccepted = []edgeListCase{
	{"comments and blank lines", "# hello\n\nn 2 1\n# mid\ne 0 1 2.5\n", ""},
	{"tab-separated record", "n 2 1\ne\t0\t1\t2\n", ""},
	{"dimacs", "c tiny\np sp 4 3\na 1 2 1.5\nc mid\na 2 3 2\na 3 4 0.25\n", ""},
	{"c comment before native header", "c note\nn 2 1\ne 0 1 2\n", ""},
	{"edgeless", "n 3 0\n", ""},
	// Even n with no edges ends the file on an empty arcs section, which
	// must still lie inside the file.
	{"empty graph", "n 0 0\n", ""},
	{"edgeless even", "n 2 0\n", ""},
	{"dimacs edgeless", "p sp 2 0\n", ""},
}

var edgeListRejected = []edgeListCase{
	// Headers.
	{"empty", "", "missing header"},
	{"no header", "e 0 1 2\n", "expected a header line"},
	{"edge before header", "e 0 1 1\n", "expected a header line"},
	{"bad dimacs problem", "p max 3 2\na 1 2 1\na 2 3 1\n", "p sp"},
	{"native header junk", "n 2 1 junk\ne 0 1 2\n", "bad native header"},
	{"negative header", "n -1 0\n", "negative header values"},
	{"duplicate header", "n 1 0\nn 1 0\n", "unrecognized record"},
	{"vertex count past int32", "n 1000000000000000 0\n", "int32 vertex-id limit"},
	{"edge count past int32 offsets", "n 2 1000000000000000\n", "int32 CSR offsets"},
	// Counts.
	{"no edges", "n 2 1\n", "declared 1 edges, found 0"},
	{"edge count short", "n 3 2\ne 0 1 1\n", "declared 2 edges, found 1"},
	{"edge count long", "n 3 1\ne 0 1 1\ne 1 2 1\n", "declared 1 edges, found 2"},
	// Records.
	{"unrecognized record", "n 3 1\nq 0 1 1\n", "unrecognized record"},
	{"unknown record", "n 2 1\nx 0 1 1\n", "unrecognized record"},
	{"record junk", "n 2 1\ne 0 1 2 junk\n", "unrecognized record"},
	{"bad endpoint", "n 2 1\ne zero one one\n", "bad endpoint"},
	{"bad weight", "n 3 1\ne 0 1 cheap\n", "bad weight"},
	// The weight domain.
	{"out of range", "n 3 1\ne 0 3 1\n", "out of range"},
	{"out of range far", "n 2 1\ne 0 5 1\n", "out of range"},
	{"dimacs vertex 0", "p sp 2 1\na 0 1 1\n", "out of range"},
	{"self loop", "n 3 1\ne 1 1 1\n", "self-loop"},
	{"zero weight", "n 3 1\ne 0 1 0\n", "non-positive weight"},
	{"negative weight", "n 3 1\ne 0 1 -2\n", "non-positive weight"},
	{"nan weight", "n 2 1\ne 0 1 NaN\n", "non-positive weight"},
	{"inf weight", "n 2 1\ne 0 1 Inf\n", "infinite weight"},
	{"+inf weight", "n 2 1\ne 0 1 +Inf\n", "infinite weight"},
	{"weight sum overflows", "n 3 2\ne 0 1 1e308\ne 1 2 1e308\n", "weight sum overflows"},
}

// TestEdgeListGrammar runs the accepted inputs of the corpus through both
// loaders of the text edge list, graph.ReadFrom and Convert.
func TestEdgeListGrammar(t *testing.T) {
	runEdgeListCases(t, edgeListAccepted)
}

// TestConvertRejectsBadInput runs the rejected inputs of the corpus through
// Convert and graph.ReadFrom, which must fail with the same error.
func TestConvertRejectsBadInput(t *testing.T) {
	runEdgeListCases(t, edgeListRejected)
}

// runEdgeListCases checks each case with loadBoth, one subtest per case.
func runEdgeListCases(t *testing.T, cases []edgeListCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := writeFile(t, "g.txt", tc.content)
			err := loadBoth(t, src)
			switch {
			case tc.wantSub == "" && err != nil:
				t.Fatalf("both loaders rejected a valid input: %v", err)
			case tc.wantSub != "" && err == nil:
				t.Fatalf("both loaders accepted an input that should fail with %q", tc.wantSub)
			case err != nil && !strings.HasPrefix(err.Error(), "invalid edge list "+src+": "):
				t.Fatalf("error %q does not name the edge list %s", err, src)
			case err != nil && !strings.Contains(err.Error(), tc.wantSub):
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// FuzzEdgeList holds graph.ReadFrom and Convert to one grammar on any bytes.
// Inputs declaring more than 2¹⁶ vertices are skipped, since both loaders
// rightly allocate O(n) for them.
func FuzzEdgeList(f *testing.F) {
	for _, tc := range append(edgeListAccepted, edgeListRejected...) {
		f.Add([]byte(tc.content))
	}
	errLarge := errors.New("too many vertices to fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		err := graph.ScanEdges("fuzz", bytes.NewReader(data), func(n, _ int) error {
			if n > 1<<16 {
				return errLarge
			}
			return nil
		}, func(int, graph.Edge) error { return nil })
		if errors.Is(err, errLarge) {
			t.Skip()
		}
		loadBoth(t, writeFile(t, "g.txt", string(data)))
	})
}

// loadBoth loads the edge list at src with graph.ReadFrom and with Convert
// and fails t unless they agree. Either both accept, Convert's file holds
// the bytes Write gives ReadFrom's graph, Open gives that graph back, and
// its total weight is finite; or both reject with the same
// *core.ArtifactError, which loadBoth returns, and Convert leaves its
// destination directory empty, with no staged file either.
func loadBoth(t *testing.T, src string) error {
	t.Helper()
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	want, readErr := graph.ReadFrom(src, f)
	f.Close()
	dir := t.TempDir()
	dst := filepath.Join(dir, "g.art")
	_, convErr := Convert(src, dst)
	if readErr != nil || convErr != nil {
		var ra, ca *core.ArtifactError
		if !errors.As(readErr, &ra) || !errors.As(convErr, &ca) || readErr.Error() != convErr.Error() {
			t.Fatalf("loaders disagree: ReadFrom: %v; Convert: %v", readErr, convErr)
		}
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("failed Convert left files behind: %v %v", ents, err)
		}
		return readErr
	}
	wrote := filepath.Join(t.TempDir(), "w.art")
	if err := Write(wrote, Payload{Graph: want, Fingerprint: Fingerprint{Algorithm: "graph"}}); err != nil {
		t.Fatalf("Write of the parsed graph: %v", err)
	}
	cb, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if wb, err := os.ReadFile(wrote); err != nil || !bytes.Equal(cb, wb) {
		t.Fatalf("Convert wrote %d bytes that differ from Write's %d (%v)", len(cb), len(wb), err)
	}
	a, err := Open(dst, OpenOptions{})
	if err != nil {
		t.Fatalf("Open of a converted edge list: %v", err)
	}
	defer a.Close()
	sameGraph(t, want, a.Graph())
	if w := want.TotalWeight(); math.IsInf(w, 0) || math.IsNaN(w) {
		t.Fatalf("accepted graph has total weight %v", w)
	}
	return nil
}

// TestConvertLarger exercises the streaming path on a graph big enough that
// the buffered edge writer flushes more than once.
func TestConvertLarger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g := testGraph(t, 5000, 33)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	src := writeFile(t, "g.txt", buf.String())
	dst := filepath.Join(t.TempDir(), "g.art")
	if _, err := Convert(src, dst); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dst, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	want, err := graph.ReadFrom(src, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, want, a.Graph())
}

// TestConvertWeightBits pins that weights survive the text round trip at
// full precision for values %g prints exactly.
func TestConvertWeightBits(t *testing.T) {
	weights := []float64{1, 0.1, 1e-12, 12345.6789, 3.141592653589793}
	var sb strings.Builder
	fmt.Fprintf(&sb, "n %d %d\n", len(weights)+1, len(weights))
	for i, w := range weights {
		fmt.Fprintf(&sb, "e %d %d %g\n", i, i+1, w)
	}
	src := writeFile(t, "w.txt", sb.String())
	dst := filepath.Join(t.TempDir(), "w.art")
	if _, err := Convert(src, dst); err != nil {
		t.Fatal(err)
	}
	a, err := Open(dst, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for i, e := range a.Graph().Edges() {
		if e.W != weights[i] {
			t.Errorf("edge %d weight: got %v, want %v", i, e.W, weights[i])
		}
	}
}
