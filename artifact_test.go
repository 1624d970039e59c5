package mpcspanner

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mpcspanner/internal/artifact"
	"mpcspanner/internal/spanner"
)

func artifactTestGraph() *Graph {
	return Connectify(GNP(400, 0.03, UniformWeight(1, 50), 9), 5)
}

func artifactTestPairs(n int) []Pair {
	var pairs []Pair
	for u := 0; u < n; u += 23 {
		for v := 1; v < n; v += 61 {
			pairs = append(pairs, Pair{U: u, V: v})
		}
	}
	return pairs
}

// TestSaveOpenBitIdentity is the determinism acceptance test: build, save,
// reload, and the restored session must answer every query bit-identical to
// a session served directly from the in-process result — at every worker
// count (1, 3, and the GOMAXPROCS default). The saved identity does not
// depend on the pool size either: every file records Workers 0, and a Build
// or a Serve session saves one checksum at every worker count.
func TestSaveOpenBitIdentity(t *testing.T) {
	ctx := context.Background()
	g := artifactTestGraph()
	pairs := artifactTestPairs(g.N())
	checksums := map[string][]string{}
	for _, workers := range []int{1, 3, 0} {
		res, err := Build(ctx, g,
			WithAlgorithm(AlgoMPC), WithK(6), WithSeed(42), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: Build: %v", workers, err)
		}
		path := filepath.Join(t.TempDir(), "spanner.art")
		if err := res.Save(path); err != nil {
			t.Fatalf("workers=%d: Save: %v", workers, err)
		}

		direct, err := Serve(ctx, res.Spanner(), WithExact())
		if err != nil {
			t.Fatalf("workers=%d: Serve direct: %v", workers, err)
		}
		want, err := direct.QueryMany(ctx, pairs)
		if err != nil {
			t.Fatalf("workers=%d: direct QueryMany: %v", workers, err)
		}

		a, err := Open(ctx, path)
		if err != nil {
			t.Fatalf("workers=%d: Open: %v", workers, err)
		}
		loaded, err := Serve(ctx, nil, WithArtifact(a), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: Serve loaded: %v", workers, err)
		}
		got, err := loaded.QueryMany(ctx, pairs)
		if err != nil {
			t.Fatalf("workers=%d: loaded QueryMany: %v", workers, err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: pair %d (%d,%d): loaded %v != direct %v",
					workers, i, pairs[i].U, pairs[i].V, got[i], want[i])
			}
		}

		// Provenance survives the round trip.
		fp := loaded.Fingerprint()
		if fp.Algorithm != string(AlgoMPC) || fp.Seed != 42 || fp.K != 6 || fp.Workers != 0 {
			t.Fatalf("workers=%d: restored fingerprint %+v", workers, fp)
		}
		checksums["Build"] = append(checksums["Build"], a.Checksum())
		if loaded.Artifact() != a {
			t.Fatalf("workers=%d: Session.Artifact does not return the served artifact", workers)
		}
		if ids := a.EdgeIDs(); len(ids) != len(res.EdgeIDs) {
			t.Fatalf("workers=%d: artifact records %d edge ids, build selected %d",
				workers, len(ids), len(res.EdgeIDs))
		}
		if sn, sm := a.SourceShape(); sn != g.N() || sm != g.M() {
			t.Fatalf("workers=%d: source shape (%d,%d), want (%d,%d)", workers, sn, sm, g.N(), g.M())
		}
		a.Close()

		s, err := Serve(ctx, g, WithSeed(42), WithWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: Serve: %v", workers, err)
		}
		spath := filepath.Join(t.TempDir(), "session.art")
		if err := s.Save(spath); err != nil {
			t.Fatalf("workers=%d: Session.Save: %v", workers, err)
		}
		sa, err := Open(ctx, spath)
		if err != nil {
			t.Fatalf("workers=%d: Open session artifact: %v", workers, err)
		}
		if fp := sa.Fingerprint(); fp.Algorithm != string(AlgoMPC) || fp.Workers != 0 {
			t.Fatalf("workers=%d: session fingerprint %+v", workers, fp)
		}
		checksums["Serve"] = append(checksums["Serve"], sa.Checksum())
		sa.Close()
	}
	for path, sums := range checksums {
		for i := range sums {
			if sums[i] != sums[0] {
				t.Errorf("%s: checksums %v differ across workers 1, 3 and 0", path, sums)
				break
			}
		}
	}
}

// TestSessionSaveWarmRows pins the warm-restart contract: a session saved
// after serving freezes its resident rows, and a replica restarted from the
// file answers those sources without a single Dijkstra. A second
// save→load cycle keeps accumulating warmth.
func TestSessionSaveWarmRows(t *testing.T) {
	ctx := context.Background()
	g := artifactTestGraph()
	s, err := Serve(ctx, g, WithExact())
	if err != nil {
		t.Fatal(err)
	}
	warm := []Pair{{U: 0, V: 5}, {U: 17, V: 3}, {U: 99, V: 1}}
	want, err := s.QueryMany(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1 := filepath.Join(dir, "warm1.art")
	if err := s.Save(p1); err != nil {
		t.Fatal(err)
	}

	a1, err := Open(ctx, p1)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	if got := artifact.RowsOf(a1).Len(); got != 3 {
		t.Fatalf("saved artifact froze %d rows, want 3", got)
	}
	s1, err := Serve(ctx, nil, WithArtifact(a1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := s1.QueryMany(ctx, warm)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("warm pair %d: got %v, want %v", i, got[i], want[i])
		}
	}
	st := s1.Stats()
	if st.Misses != 0 {
		t.Fatalf("restored replica ran %d Dijkstras on its warm set", st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("frozen rows did not count as hits")
	}

	// Warm a new source on the restored session, save again: the second
	// artifact carries the union.
	if _, err := s1.Query(ctx, 42, 7); err != nil {
		t.Fatal(err)
	}
	p2 := filepath.Join(dir, "warm2.art")
	if err := s1.Save(p2); err != nil {
		t.Fatal(err)
	}
	a2, err := Open(ctx, p2)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if got := artifact.RowsOf(a2).Len(); got != 4 {
		t.Fatalf("second save froze %d rows, want 4 (3 inherited + 1 new)", got)
	}
}

// TestArtifactOptionValidation sweeps the option-combination surface the
// redesign added.
func TestArtifactOptionValidation(t *testing.T) {
	ctx := context.Background()
	g := artifactTestGraph()
	path := filepath.Join(t.TempDir(), "a.art")
	res, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(5), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Save(path); err != nil {
		t.Fatal(err)
	}
	a, err := Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	cases := []struct {
		name string
		run  func() error
	}{
		{"WithArtifact on Build", func() error {
			_, err := Build(ctx, g, WithK(4), WithArtifact(a))
			return err
		}},
		{"nil artifact", func() error {
			_, err := Serve(ctx, nil, WithArtifact(nil))
			return err
		}},
		{"graph together with artifact", func() error {
			_, err := Serve(ctx, g, WithArtifact(a))
			return err
		}},
		{"nil graph without artifact", func() error {
			_, err := Serve(ctx, nil)
			return err
		}},
		{"build option with artifact", func() error {
			_, err := Serve(ctx, nil, WithArtifact(a), WithSeed(1))
			return err
		}},
		{"exact with artifact", func() error {
			_, err := Serve(ctx, nil, WithArtifact(a), WithExact())
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			if err == nil {
				t.Fatal("accepted an invalid combination")
			}
			if !errors.Is(err, ErrInvalidOption) {
				t.Fatalf("want ErrInvalidOption, got %v", err)
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("want *OptionError, got %v", err)
			}
		})
	}
}

// TestOpenErrors pins the facade's typed-error surface for bad files.
func TestOpenErrors(t *testing.T) {
	ctx := context.Background()
	_, err := Open(ctx, filepath.Join(t.TempDir(), "missing.art"))
	if err == nil {
		t.Fatal("Open accepted a missing file")
	}
	if !errors.Is(err, ErrArtifact) {
		t.Fatalf("want ErrArtifact, got %v", err)
	}
	var ae *ArtifactError
	if !errors.As(err, &ae) {
		t.Fatalf("want *ArtifactError, got %v", err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Open(canceled, "anything.art"); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Open under a canceled context: want ErrCanceled, got %v", err)
	}
}

// TestSaveOnForeignResult pins that a hand-assembled BuildResult (no source
// graph) fails Save with a typed error instead of panicking.
func TestSaveOnForeignResult(t *testing.T) {
	var r BuildResult
	err := r.Save(filepath.Join(t.TempDir(), "x.art"))
	if !errors.Is(err, ErrArtifact) {
		t.Fatalf("want ErrArtifact, got %v", err)
	}
}

// TestServeBuiltSessionFingerprint pins the provenance of the two in-process
// session kinds: the pipeline records the AlgoMPC build it is, with the γ
// it ran at.
func TestServeBuiltSessionFingerprint(t *testing.T) {
	ctx := context.Background()
	g := artifactTestGraph()
	exact, err := Serve(ctx, g, WithExact())
	if err != nil {
		t.Fatal(err)
	}
	if fp := exact.Fingerprint(); fp.Algorithm != "exact" {
		t.Fatalf("exact session fingerprint %+v", fp)
	}
	if exact.Artifact() != nil {
		t.Fatal("in-process session reports an artifact")
	}
	piped, err := Serve(ctx, g, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	fp := piped.Fingerprint()
	if fp.Algorithm != string(AlgoMPC) || fp.Seed != 5 || fp.K == 0 || fp.T == 0 || fp.Gamma != 0.5 {
		t.Fatalf("pipeline session fingerprint %+v", fp)
	}
}

// saveBytes runs save on a fresh path and returns the file it wrote.
func saveBytes(t *testing.T, save func(string) error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.art")
	if err := save(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeSaveMatchesBuildSave pins one identity per computation: a fresh
// pipeline session saves the very file its AlgoMPC build at Corollary 1.4's
// k saves — fingerprint, edge ids and source shape included.
func TestServeSaveMatchesBuildSave(t *testing.T) {
	ctx := context.Background()
	g := artifactTestGraph()
	k, _ := spanner.APSPParams(g.N())
	s, err := Serve(ctx, g, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(k), WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saveBytes(t, s.Save), saveBytes(t, res.Save)) {
		t.Fatalf("pipeline session %v saves a different file than Build %v", s.Fingerprint(), res.fp)
	}
}

// TestArtifactSessionResaveKeepsProvenance pins that save→load→save keeps
// the build's record: the re-saved artifact carries the loaded one's
// fingerprint, edge ids and source shape, not the spanner's own shape.
func TestArtifactSessionResaveKeepsProvenance(t *testing.T) {
	ctx := context.Background()
	g := artifactTestGraph()
	res, err := Build(ctx, g, WithAlgorithm(AlgoMPC), WithK(5), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "one.art"), filepath.Join(dir, "two.art")
	if err := res.Save(p1); err != nil {
		t.Fatal(err)
	}
	a1, err := Open(ctx, p1)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Close()
	s, err := Serve(ctx, nil, WithArtifact(a1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(ctx, 3, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(p2); err != nil {
		t.Fatal(err)
	}
	a2, err := Open(ctx, p2)
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	if a2.Fingerprint() != a1.Fingerprint() {
		t.Fatalf("re-saved fingerprint %v, want %v", a2.Fingerprint(), a1.Fingerprint())
	}
	if !slices.Equal(a2.EdgeIDs(), res.EdgeIDs) {
		t.Fatalf("re-saved %d edge ids, want the build's %d", len(a2.EdgeIDs()), len(res.EdgeIDs))
	}
	if sn, sm := a2.SourceShape(); sn != g.N() || sm != g.M() {
		t.Fatalf("re-saved source shape (%d,%d), want (%d,%d)", sn, sm, g.N(), g.M())
	}
}

// TestUnweightedGammaDefaultIdentity pins that the fingerprint records the
// γ a build ran with: AlgoUnweighted at the default γ and at an explicit
// WithGamma(0.5) is one computation and writes one file.
func TestUnweightedGammaDefaultIdentity(t *testing.T) {
	ctx := context.Background()
	g := Grid(30, 30, UnitWeight, 2)
	save := func(opts ...Option) []byte {
		res, err := Build(ctx, g, append(opts, WithAlgorithm(AlgoUnweighted), WithK(3), WithSeed(2))...)
		if err != nil {
			t.Fatal(err)
		}
		return saveBytes(t, res.Save)
	}
	if !bytes.Equal(save(), save(WithGamma(0.5))) {
		t.Fatal("the default γ and WithGamma(0.5) save different files")
	}
}
