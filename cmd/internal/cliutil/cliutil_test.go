package cliutil

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mpcspanner"
	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
)

func TestGeneratorDispatch(t *testing.T) {
	cases := []struct {
		gen string
		n   int
	}{
		{"gnp", 200},
		{"grid", 100}, // side 10
		{"torus", 100},
		{"pa", 150},
		{"rgg", 120},
		{"cycle", 80},
	}
	for _, c := range cases {
		g, err := MakeGraph("", c.gen, c.n, 6, 10, 7, false)
		if err != nil {
			t.Fatalf("%s: %v", c.gen, err)
		}
		if g.N() == 0 || g.M() == 0 {
			t.Fatalf("%s: degenerate graph n=%d m=%d", c.gen, g.N(), g.M())
		}
		// grid/torus round n down to side²; everything else keeps n.
		if c.gen != "grid" && c.gen != "torus" && g.N() != c.n {
			t.Fatalf("%s: n=%d, want %d", c.gen, g.N(), c.n)
		}
	}
}

func TestUnknownGeneratorErrors(t *testing.T) {
	if _, err := MakeGraph("", "nope", 100, 4, 10, 1, false); err == nil {
		t.Fatal("unknown generator accepted")
	} else if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error should name the generator: %v", err)
	}
}

func TestWeightFlagSelectsUnitVsUniform(t *testing.T) {
	unit, err := MakeGraph("", "cycle", 50, 2, 1, 3, false) // maxW <= 1: unit
	if err != nil {
		t.Fatal(err)
	}
	if !unit.IsUnit() {
		t.Fatal("maxW=1 should produce unit weights")
	}
	weighted, err := MakeGraph("", "cycle", 50, 2, 9, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if weighted.IsUnit() {
		t.Fatal("maxW=9 should produce non-unit weights")
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, err := MakeGraph("", "gnp", 200, 5, 10, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MakeGraph("", "gnp", 200, 5, 10, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() != b.M() {
		t.Fatalf("equal seeds gave different graphs: m=%d vs %d", a.M(), b.M())
	}
	c, err := MakeGraph("", "gnp", 200, 5, 10, 43, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.M() == c.M() && a.TotalWeight() == c.TotalWeight() {
		t.Fatal("different seeds produced an identical graph (suspicious)")
	}
}

func TestConnectifyFlag(t *testing.T) {
	// Two distant RGG clusters are almost surely disconnected at this radius;
	// with connectify the output must be connected.
	g, err := MakeGraph("", "gnp", 120, 0.5, 5, 9, true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("connectify did not connect the generated graph")
	}
	raw, err := MakeGraph("", "gnp", 120, 0.5, 5, 9, false)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Connected() {
		t.Skip("generated graph happened to be connected; flag untestable at this seed")
	}
}

func writeGraphFile(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadFromFile(t *testing.T) {
	orig := graph.GNP(80, 0.1, graph.UniformWeight(1, 7), 5)
	path := writeGraphFile(t, orig)
	g, err := MakeGraph(path, "ignored", 0, 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != orig.N() || g.M() != orig.M() {
		t.Fatalf("roundtrip mismatch: n=%d m=%d vs n=%d m=%d", g.N(), g.M(), orig.N(), orig.M())
	}
}

func TestLoadFromFileConnectifyUsesFileScale(t *testing.T) {
	// Disconnected two-component graph with heavy edges: the bridge must be
	// at the file's weight scale (>= max edge weight), not the -maxw flag.
	orig := graph.MustNew(4, []graph.Edge{
		{U: 0, V: 1, W: 50},
		{U: 2, V: 3, W: 40},
	})
	path := writeGraphFile(t, orig)
	g, err := MakeGraph(path, "", 0, 0, 1, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("connectify did not bridge the file graph")
	}
	for _, e := range g.Edges()[orig.M():] {
		if e.W < 50 {
			t.Fatalf("bridge weight %v below the file's weight scale 50", e.W)
		}
	}
}

// TestWeightSumOverflowErrors pins that a graph whose weights would sum
// past float64 — a file bridged at its own weight scale, or a generator
// under a huge -maxw — is an ErrInvalidOption, not graph.MustNew's panic.
func TestWeightSumOverflowErrors(t *testing.T) {
	path := writeGraphFile(t, graph.MustNew(3, []graph.Edge{{U: 0, V: 1, W: 1.5e308}}))
	if _, err := MakeGraph(path, "", 0, 0, 0, 0, false); err != nil {
		t.Fatalf("unbridged load: %v", err)
	}
	_, errBridged := MakeGraph(path, "", 0, 0, 0, 0, true)
	_, errGenerated := MakeGraph("", "gnp", 1000, 10, 1e307, 1, false)
	for _, err := range []error{errBridged, errGenerated} {
		if !errors.Is(err, core.ErrInvalidOption) || !strings.Contains(err.Error(), "weight sum overflows") {
			t.Errorf("got %v, want a weight-sum overflow rejection", err)
		}
	}
}

func TestLoadMissingFileErrors(t *testing.T) {
	if _, err := MakeGraph(filepath.Join(t.TempDir(), "absent.txt"), "", 0, 0, 0, 0, false); err == nil {
		t.Fatal("missing input file accepted")
	}
}

func TestGraphFlagsDefaultsAndParse(t *testing.T) {
	// Defaults: registering on a fresh FlagSet and parsing nothing must give
	// the documented vocabulary every cmd/* driver shares.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := GraphFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Gen != "gnp" || c.In != "" || c.N != 10000 || c.Deg != 10 || c.MaxW != 100 || c.Seed != 1 {
		t.Fatalf("defaults drifted: %+v", *c)
	}

	// Parsed values land in the config, and Make materializes them exactly
	// as the underlying MakeGraph call would.
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	c = GraphFlags(fs)
	if err := fs.Parse([]string{"-gen", "grid", "-n", "100", "-maxw", "7", "-seed", "12"}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Make(false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MakeGraph("", "grid", 100, 10, 7, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() || got.M() != want.M() || got.TotalWeight() != want.TotalWeight() {
		t.Fatalf("GraphConfig.Make diverged from MakeGraph: n=%d m=%d w=%v vs n=%d m=%d w=%v",
			got.N(), got.M(), got.TotalWeight(), want.N(), want.M(), want.TotalWeight())
	}

	// The flag vocabulary itself is part of the contract: two drivers that
	// both call GraphFlags must expose identical flag names.
	for _, name := range []string{"gen", "in", "n", "deg", "maxw", "seed"} {
		if fs.Lookup(name) == nil {
			t.Fatalf("GraphFlags did not register -%s", name)
		}
	}
}

func TestGraphFlagsMakePropagatesErrors(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := GraphFlags(fs)
	if err := fs.Parse([]string{"-gen", "bogus"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Make(false); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("Make must surface the unknown-generator error, got %v", err)
	}
}

func TestLoadMalformedFileErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, []byte("this is not a graph\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MakeGraph(path, "", 0, 0, 0, 0, false); err == nil {
		t.Fatal("malformed input file accepted")
	}
}

func TestArtifactFlagsDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	ac := ArtifactFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if ac.Save != "" || ac.Load != "" {
		t.Fatalf("defaults drifted: %+v", *ac)
	}
	if err := ac.Validate(); err != nil {
		t.Fatalf("empty config must validate: %v", err)
	}
	for _, name := range []string{"save", "load"} {
		if fs.Lookup(name) == nil {
			t.Fatalf("ArtifactFlags did not register -%s", name)
		}
	}
}

func TestArtifactFlagsValidCombinations(t *testing.T) {
	cases := [][]string{
		{"-save", "out.art"},
		{"-save", "out.art", "-gen", "grid", "-n", "100"},
		{"-load", "in.art"},
	}
	for _, args := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		GraphFlags(fs)
		ac := ArtifactFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := ac.Validate(); err != nil {
			t.Fatalf("%v rejected: %v", args, err)
		}
	}
}

func TestArtifactFlagsConflicts(t *testing.T) {
	cases := []struct {
		args      []string
		wantField string
	}{
		{[]string{"-load", "in.art", "-save", "out.art"}, "-save"},
		{[]string{"-load", "in.art", "-gen", "grid"}, "-gen"},
		{[]string{"-load", "in.art", "-n", "500"}, "-n"},
		{[]string{"-load", "in.art", "-seed", "7"}, "-seed"},
		{[]string{"-load", "in.art", "-in", "g.txt"}, "-in"},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		GraphFlags(fs)
		ac := ArtifactFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := ac.Validate()
		if err == nil {
			t.Fatalf("%v accepted", tc.args)
		}
		var oe *core.OptionError
		if !errors.As(err, &oe) {
			t.Fatalf("%v: want *core.OptionError, got %v", tc.args, err)
		}
		if oe.Field != tc.wantField {
			t.Fatalf("%v: error names %q, want %q", tc.args, oe.Field, tc.wantField)
		}
	}
}

func TestArtifactFlagsLoadTolerantOfOtherFlags(t *testing.T) {
	// Only graph flags and -save conflict with -load; cache and metrics
	// flags configure the serving side and remain legal.
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	GraphFlags(fs)
	ac := ArtifactFlags(fs)
	other := fs.Int("rows", 0, "")
	if err := fs.Parse([]string{"-load", "in.art", "-rows", "64"}); err != nil {
		t.Fatal(err)
	}
	if err := ac.Validate(); err != nil {
		t.Fatalf("-rows with -load rejected: %v", err)
	}
	if *other != 64 {
		t.Fatal("unrelated flag lost its value")
	}
}

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"1":      1,
		"4096":   4096,
		"64K":    64 << 10,
		"64KiB":  64 << 10,
		"64kib":  64 << 10,
		"512MiB": 512 << 20,
		"512m":   512 << 20,
		"2GiB":   2 << 30,
		"2g":     2 << 30,
		"123B":   123,
	}
	for spec, want := range good {
		got, err := ParseBytes(spec)
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", spec, err)
		} else if got != want {
			t.Errorf("ParseBytes(%q) = %d, want %d", spec, got, want)
		}
	}
	bad := []string{"", "0", "0KiB", "-1", "KiB", "12XB", "1.5GiB", "64 KiB",
		"99999999999999999999", "9999999999GiB"}
	for _, spec := range bad {
		if n, err := ParseBytes(spec); err == nil {
			t.Errorf("ParseBytes(%q) accepted as %d", spec, n)
		}
	}
}

func TestMemoryFlagBudget(t *testing.T) {
	parse := func(args ...string) (*MemoryConfig, *flag.FlagSet) {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.Bool("mpc", false, "")
		fs.String("load", "", "")
		fs.Bool("exact", false, "")
		mc := MemoryFlag(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return mc, fs
	}

	// Unset flag: zero budget, no validation at all.
	mc, _ := parse()
	if n, err := mc.Budget([]string{"load", "exact"}, "mpc"); n != 0 || err != nil {
		t.Fatalf("unset -memory: got (%d, %v), want (0, nil)", n, err)
	}

	// Happy path with the requires-plane rule satisfied.
	mc, _ = parse("-memory", "64KiB", "-mpc")
	n, err := mc.Budget([]string{"load", "exact"}, "mpc")
	if err != nil || n != 64<<10 {
		t.Fatalf("-memory 64KiB -mpc: got (%d, %v)", n, err)
	}

	// Missing required plane flag.
	mc, _ = parse("-memory", "64KiB")
	if _, err := mc.Budget(nil, "mpc"); err == nil {
		t.Fatal("-memory without -mpc accepted")
	} else {
		var oe *core.OptionError
		if !errors.As(err, &oe) || oe.Field != "-memory" {
			t.Fatalf("want *core.OptionError on -memory, got %v", err)
		}
		if !strings.Contains(oe.Reason, "-mpc") {
			t.Fatalf("error should name the missing flag: %v", err)
		}
	}

	// Conflicting plane flags.
	conflictArgs := map[string][]string{
		"load":  {"-memory", "1GiB", "-load", "in.art"},
		"exact": {"-memory", "1GiB", "-exact"},
	}
	for conflict, args := range conflictArgs {
		mc, _ = parse(args...)
		if _, err := mc.Budget([]string{"load", "exact"}, ""); err == nil {
			t.Fatalf("-memory with -%s accepted", conflict)
		} else {
			var oe *core.OptionError
			if !errors.As(err, &oe) || oe.Field != "-memory" {
				t.Fatalf("-%s: want *core.OptionError on -memory, got %v", conflict, err)
			}
			if !strings.Contains(oe.Reason, "-"+conflict) {
				t.Fatalf("-%s: error should name the conflict: %v", conflict, err)
			}
		}
	}

	// Bad size text surfaces as the same typed error.
	mc, _ = parse("-memory", "lots", "-mpc")
	if _, err := mc.Budget(nil, "mpc"); err == nil {
		t.Fatal("-memory lots accepted")
	} else {
		var oe *core.OptionError
		if !errors.As(err, &oe) || oe.Field != "-memory" {
			t.Fatalf("want *core.OptionError on -memory, got %v", err)
		}
	}
}

// TestServeConfigOpen pins the shared opener's three modes — Serve's own
// Corollary 1.4 pipeline, -exact, and -load — and that -t reaches Serve
// wherever it was set, so the modes that build nothing reject it with a
// typed error instead of dropping it.
func TestServeConfigOpen(t *testing.T) {
	ctx := context.Background()
	g, err := MakeGraph("", "grid", 100, 4, 10, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "s.art")
	res, err := mpcspanner.Build(ctx, g,
		mpcspanner.WithAlgorithm(mpcspanner.AlgoMPC), mpcspanner.WithK(3), mpcspanner.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	art, err := mpcspanner.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer art.Close()

	open := func(art *mpcspanner.Artifact, args ...string) (*mpcspanner.Session, string, error) {
		t.Helper()
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		ArtifactFlags(fs)
		sc := ServeFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatal(err)
		}
		var w strings.Builder
		s, err := sc.Open(ctx, g, art, 3, nil, &w)
		return s, w.String(), err
	}

	s, report, err := open(nil, "-memory", "64KiB")
	if err != nil {
		t.Fatalf("pipeline: %v", err)
	}
	if fp := s.Fingerprint(); fp.Algorithm != "mpc" || fp.Seed != 3 || s.APSP() == nil {
		t.Fatalf("pipeline session fingerprint %v", fp)
	}
	if !strings.Contains(report, "spanner: k=") || !strings.Contains(report, "extmem: budget=65536 ") {
		t.Fatalf("pipeline report %q lacks its spanner: and extmem: lines", report)
	}
	if s, _, err = open(nil, "-t", "2"); err != nil || s.Fingerprint().T != 2 {
		t.Fatalf("pipeline -t 2: %v, %v", s, err)
	}
	s, report, err = open(nil, "-exact")
	if err != nil || s.Fingerprint().Algorithm != "exact" || s.APSP() != nil || s.Served() != g || report != "" {
		t.Fatalf("exact: %v, report %q", err, report)
	}
	if s, _, err = open(art); err != nil || s.Artifact() != art || s.Fingerprint() != art.Fingerprint() {
		t.Fatalf("load: %v", err)
	}

	for _, tc := range []struct {
		art  *mpcspanner.Artifact
		args []string
	}{{nil, []string{"-exact", "-t", "3"}}, {art, []string{"-t", "3"}}} {
		_, _, err := open(tc.art, tc.args...)
		var oe *core.OptionError
		if !errors.As(err, &oe) || oe.Field != "mpcspanner: T" {
			t.Fatalf("%v (load=%v): want an OptionError on T, got %v", tc.args, tc.art != nil, err)
		}
	}
}
