package extmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mpcspanner/internal/artifact"
	"mpcspanner/internal/core"
	"mpcspanner/internal/xrand"
)

// rec is the test record: a sort key plus a payload that tags the original
// position, which is how the tests observe stability.
type rec struct {
	K uint64
	V int64
}

var recCodec = Codec[rec]{
	Size: 16,
	Encode: func(dst []byte, t *rec) {
		binary.LittleEndian.PutUint64(dst[0:], t.K)
		binary.LittleEndian.PutUint64(dst[8:], uint64(t.V))
	},
	Decode: func(src []byte, t *rec) {
		t.K = binary.LittleEndian.Uint64(src[0:])
		t.V = int64(binary.LittleEndian.Uint64(src[8:]))
	},
}

// genRecs draws n records with keys in a small range so duplicate keys —
// the stability-sensitive case — are common.
func genRecs(n int, seed uint64) []rec {
	src := xrand.New(seed)
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{K: uint64(src.Intn(n/8 + 1)), V: int64(i)}
	}
	return out
}

func loadStore(t *testing.T, s *Store[rec], data []rec) {
	t.Helper()
	if err := s.LoadFrom(len(data), func(emit func(rec)) {
		for _, r := range data {
			emit(r)
		}
	}); err != nil {
		t.Fatalf("LoadFrom: %v", err)
	}
}

func dump(t *testing.T, s *Store[rec]) []rec {
	t.Helper()
	out := make([]rec, 0, s.Len())
	if err := s.Scan(func(r *rec) { out = append(out, *r) }); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

// tinyStore spills aggressively: the minimum chunk is 1024 records, so a
// few thousand records guarantee multiple runs and real merge passes.
func tinyStore(t *testing.T, workers int) *Store[rec] {
	t.Helper()
	return budgetStore(t, 1, workers)
}

func residentStoreT(t *testing.T, workers int) *Store[rec] {
	t.Helper()
	s := NewStore(recCodec, Options{Workers: workers})
	t.Cleanup(func() { s.Close() })
	return s
}

func TestLoadScanRoundTrip(t *testing.T) {
	data := genRecs(5000, 1)
	for _, spill := range []bool{false, true} {
		var s *Store[rec]
		if spill {
			s = tinyStore(t, 0)
		} else {
			s = residentStoreT(t, 0)
		}
		loadStore(t, s, data)
		if s.Spilled() != spill {
			t.Fatalf("spill=%v: Spilled() = %v", spill, s.Spilled())
		}
		if s.Len() != len(data) {
			t.Fatalf("spill=%v: Len = %d, want %d", spill, s.Len(), len(data))
		}
		got := dump(t, s)
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("spill=%v: record %d = %+v, want %+v", spill, i, got[i], data[i])
			}
		}
		if spill && s.Stats().SpilledBytes == 0 {
			t.Fatal("spilled store reports zero SpilledBytes")
		}
	}
}

// genTies draws n records whose keys take only distinct values: heavy
// ties, where most merge decisions between runs are tie-breaks.
func genTies(n, distinct int, seed uint64) []rec {
	src := xrand.New(seed)
	out := make([]rec, n)
	for i := range out {
		out[i] = rec{K: uint64(src.Intn(distinct)), V: int64(i)}
	}
	return out
}

// budgetStore is a store under budget bytes (0 = unlimited) that cleans up
// after the test.
func budgetStore(t *testing.T, budget int64, workers int) *Store[rec] {
	t.Helper()
	s := NewStore(recCodec, Options{Budget: budget, Dir: t.TempDir(), Workers: workers})
	t.Cleanup(func() { s.Close() })
	return s
}

// checkRunDir fails unless the store's run directory holds exactly its own
// runs: no merge input, staged temp file or abandoned run left behind.
func checkRunDir(t *testing.T, s *Store[rec]) {
	t.Helper()
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatalf("reading run dir: %v", err)
	}
	want := map[string]bool{}
	for _, rf := range s.runs {
		want[filepath.Base(rf.path)] = true
	}
	for _, e := range ents {
		if !want[e.Name()] {
			t.Errorf("run dir holds %s, which is not one of the store's %d runs", e.Name(), len(s.runs))
		}
	}
	if len(ents) != len(want) {
		t.Errorf("run dir holds %d files, the store has %d runs", len(ents), len(want))
	}
}

// TestSortMatchesResident is the package-level determinism pin: a spilled
// sort must produce the identical record sequence as the resident sort —
// which is itself the unique stable permutation — at every worker count
// and every merge shape.
func TestSortMatchesResident(t *testing.T) {
	// The 16-byte test record gives chunkRecs = budget/48 (at least 1024).
	// wide: 64 KiB cuts 9000 records into 7 chunk runs, and all 7 fit one
	// pass's fan-in. narrow: 32 KiB cuts them into 9 runs of 1024, but
	// even at minFrameRecs the frames of only 6 inputs fit, so the merge
	// takes two passes. tiny: a 1-byte budget merges pairwise.
	stores := []struct {
		name   string
		budget int64
		passes func(p int64) bool
		want   string
	}{
		{"resident", 0, func(p int64) bool { return p == 0 }, "0"},
		{"tiny", 1, func(p int64) bool { return p > 0 }, "> 0"},
		{"wide", 64 << 10, func(p int64) bool { return p == 1 }, "exactly 1"},
		{"narrow", 32 << 10, func(p int64) bool { return p >= 2 }, ">= 2"},
	}
	inputs := []struct {
		name string
		data []rec
	}{
		{"ties", genRecs(9000, 2)},
		{"heavy-ties", genTies(9000, 3, 12)},
	}
	for _, in := range inputs {
		want := append([]rec(nil), in.data...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].K < want[j].K })
		for _, workers := range []int{1, 3, 0} {
			for _, st := range stores {
				name := fmt.Sprintf("%s/workers=%d/%s", in.name, workers, st.name)
				s := budgetStore(t, st.budget, workers) // 0: unlimited, never spills
				loadStore(t, s, in.data)
				before := s.Stats().MergePasses
				if err := s.SortKey(func(r *rec) uint64 { return r.K }); err != nil {
					t.Fatalf("%s: sort: %v", name, err)
				}
				got := dump(t, s)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: record %d = %+v, want %+v", name, i, got[i], want[i])
					}
				}
				if p := s.Stats().MergePasses - before; !st.passes(p) {
					t.Fatalf("%s: sort ran %d merge passes, want %s", name, p, st.want)
				}
				if st.budget > 0 {
					checkRunDir(t, s)
				}
			}
		}
	}
}

// TestMergeStaysInBudget pins the budget contract through the merge: at a
// realistic budget the merge frames — decoded records, raw bytes and cached
// keys of every input plus the output's bytes — are counted in the resident
// peak, and that peak never exceeds the budget.
func TestMergeStaysInBudget(t *testing.T) {
	const budget = 256 << 10
	data := genRecs(60_000, 13)
	want := append([]rec(nil), data...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].K < want[j].K })
	s := budgetStore(t, budget, 0)
	loadStore(t, s, data)
	if err := s.SortKey(func(r *rec) uint64 { return r.K }); err != nil {
		t.Fatalf("sort: %v", err)
	}
	got := dump(t, s)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	st := s.Stats()
	if st.MergePasses != 1 {
		t.Errorf("%d merge passes over 11 chunk runs, want 1", st.MergePasses)
	}
	if st.ResidentPeakBytes > budget {
		t.Errorf("resident peak %d B exceeds the %d B budget", st.ResidentPeakBytes, budget)
	}
	// A chunk and its sort scratch fill under 70% of the budget; the merge's
	// frames fill nearly all of it, so a peak above the chunk's shows they
	// were counted.
	if chunk := 2 * s.recBytes(s.chunkRecs); st.ResidentPeakBytes <= chunk {
		t.Errorf("resident peak %d B is no more than a chunk's %d B: merge frames uncounted",
			st.ResidentPeakBytes, chunk)
	}
	checkRunDir(t, s)
}

// TestFilterRewritesMatchResident pins Filter's two uses, spilled against
// resident: a rewrite that keeps every record, then a filter that drops
// some.
func TestFilterRewritesMatchResident(t *testing.T) {
	data := genRecs(6000, 3)
	for _, spill := range []bool{false, true} {
		var s *Store[rec]
		if spill {
			s = tinyStore(t, 0)
		} else {
			s = residentStoreT(t, 0)
		}
		loadStore(t, s, data)
		if err := s.Filter(func(r *rec) bool { r.V *= 2; return true }); err != nil {
			t.Fatalf("rewriting Filter: %v", err)
		}
		if err := s.Filter(func(r *rec) bool { return r.K%3 != 0 }); err != nil {
			t.Fatalf("Filter: %v", err)
		}
		got := dump(t, s)
		want := make([]rec, 0, len(data))
		for _, r := range data {
			if r.K%3 != 0 {
				want = append(want, rec{K: r.K, V: r.V * 2})
			}
		}
		if len(got) != len(want) || s.Len() != len(want) {
			t.Fatalf("spill=%v: %d survivors (Len=%d), want %d", spill, len(got), s.Len(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("spill=%v: record %d = %+v, want %+v", spill, i, got[i], want[i])
			}
		}
	}
}

// TestFilterUnspills pins that a spilled store whose survivors fit the
// budget pulls them back into memory.
func TestFilterUnspills(t *testing.T) {
	s := tinyStore(t, 0)
	loadStore(t, s, genRecs(5000, 4))
	if !s.Spilled() {
		t.Fatal("store did not spill")
	}
	if err := s.Filter(func(r *rec) bool { return r.V < 100 }); err != nil {
		t.Fatalf("Filter: %v", err)
	}
	if s.Spilled() {
		t.Fatalf("store with %d survivors is still spilled", s.Len())
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}

func TestSegmentsMatchResident(t *testing.T) {
	data := genRecs(7000, 5)
	sort.SliceStable(data, func(i, j int) bool { return data[i].K < data[j].K })
	same := func(a, b *rec) bool { return a.K == b.K }

	type agg struct{ count, vsum int64 }
	walk := func(s *Store[rec]) map[uint64]agg {
		shards := make([]map[uint64]agg, s.workers)
		for i := range shards {
			shards[i] = map[uint64]agg{}
		}
		if err := s.Segments(same, func(shard int, seg []rec) {
			a := shards[shard][seg[0].K]
			a.count += int64(len(seg))
			for i := range seg {
				a.vsum += seg[i].V
			}
			shards[shard][seg[0].K] = a
		}); err != nil {
			t.Fatalf("Segments: %v", err)
		}
		merged := map[uint64]agg{}
		for _, m := range shards {
			for k, a := range m {
				g := merged[k]
				g.count += a.count
				g.vsum += a.vsum
				merged[k] = g
			}
		}
		return merged
	}

	res := residentStoreT(t, 3)
	loadStore(t, res, data)
	sp := tinyStore(t, 3)
	loadStore(t, sp, data)
	want, got := walk(res), walk(sp)
	if len(want) != len(got) {
		t.Fatalf("segment key count: spilled %d, resident %d", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("key %d: spilled %+v, resident %+v", k, got[k], w)
		}
	}

	// FilterSegments: keep each segment's min-V record only.
	decide := func(seg []rec, keep []bool) {
		min := 0
		for i := range seg {
			if seg[i].V < seg[min].V {
				min = i
			}
		}
		keep[min] = true
	}
	if err := res.FilterSegments(same, decide); err != nil {
		t.Fatalf("resident FilterSegments: %v", err)
	}
	if err := sp.FilterSegments(same, decide); err != nil {
		t.Fatalf("spilled FilterSegments: %v", err)
	}
	wantRecs, gotRecs := dump(t, res), dump(t, sp)
	if len(wantRecs) != len(gotRecs) {
		t.Fatalf("FilterSegments survivors: spilled %d, resident %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if wantRecs[i] != gotRecs[i] {
			t.Fatalf("FilterSegments record %d: spilled %+v, resident %+v", i, gotRecs[i], wantRecs[i])
		}
	}
}

// TestRunCorruptionTaxonomy pins that every way a run file can rot —
// truncation, payload corruption, header corruption, a stale format
// version — surfaces as a typed *core.ArtifactError from the next
// streaming operation, never a panic or a silent wrong answer.
func TestRunCorruptionTaxonomy(t *testing.T) {
	cases := []struct {
		name      string
		corrupt   func(b []byte) []byte
		reasonSub string
	}{
		{"truncated header", func(b []byte) []byte { return b[:16] }, "truncated header"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-8] }, "truncated?"},
		{"payload bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, "payload checksum mismatch"},
		{"header corruption", func(b []byte) []byte { b[12] ^= 0x01; return b }, "header checksum mismatch"},
		{"stale version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 99)
			binary.LittleEndian.PutUint32(b[28:], artifact.Checksum(b[:28]))
			return b
		}, "run format version 99"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "not an extmem run file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := tinyStore(t, 1)
			loadStore(t, s, genRecs(3000, 6))
			if len(s.runs) == 0 {
				t.Fatal("store did not spill")
			}
			path := s.runs[0].path
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}
			err = s.Scan(func(*rec) {})
			var ae *core.ArtifactError
			if !errors.As(err, &ae) {
				t.Fatalf("Scan on corrupted run returned %v, want *core.ArtifactError", err)
			}
			if !errors.Is(err, core.ErrArtifact) {
				t.Fatalf("error does not match core.ErrArtifact: %v", err)
			}
			if got := err.Error(); !strings.Contains(got, tc.reasonSub) {
				t.Fatalf("error %q does not mention %q", got, tc.reasonSub)
			}
		})
	}
}

// TestCorruptRunFailsCleanly pins the failure path of every streaming
// operation: when the last run of a spilled store has one flipped payload
// byte, the operation returns a typed *core.ArtifactError and the run
// directory still holds exactly the store's runs — no input run deleted
// early, no output run left behind.
func TestCorruptRunFailsCleanly(t *testing.T) {
	same := func(a, b *rec) bool { return a.K == b.K }
	ops := []struct {
		name string
		run  func(s *Store[rec]) error
	}{
		{"Scan", func(s *Store[rec]) error { return s.Scan(func(*rec) {}) }},
		{"FilterRewrite", func(s *Store[rec]) error { return s.Filter(func(r *rec) bool { r.V++; return true }) }},
		{"Filter", func(s *Store[rec]) error { return s.Filter(func(r *rec) bool { return r.K%2 == 0 }) }},
		{"Segments", func(s *Store[rec]) error { return s.Segments(same, func(int, []rec) {}) }},
		{"FilterSegments", func(s *Store[rec]) error {
			return s.FilterSegments(same, func(_ []rec, keep []bool) { keep[0] = true })
		}},
		{"SortKey", func(s *Store[rec]) error { return s.SortKey(func(r *rec) uint64 { return r.K }) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			s := tinyStore(t, 1)
			loadStore(t, s, genRecs(5000, 9))
			if len(s.runs) < 2 {
				t.Fatalf("store holds %d runs, want several", len(s.runs))
			}
			path := s.runs[len(s.runs)-1].path
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b[len(b)-1] ^= 0x40
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			err = op.run(s)
			var ae *core.ArtifactError
			if !errors.As(err, &ae) {
				t.Fatalf("%s on a corrupted run returned %v, want *core.ArtifactError", op.name, err)
			}
			checkRunDir(t, s)
		})
	}
}

// TestCloseRemovesRunDir pins cleanup: Close deletes the private run
// directory and everything in it.
func TestCloseRemovesRunDir(t *testing.T) {
	dir := t.TempDir()
	s := NewStore(recCodec, Options{Budget: 1, Dir: dir})
	loadStore(t, s, genRecs(3000, 7))
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one run dir under %s, got %v (%v)", dir, ents, err)
	}
	sub := filepath.Join(dir, ents[0].Name())
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Fatalf("run dir %s survives Close (stat err %v)", sub, err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestStatsAndMetrics pins the accounting series a spilled build exposes.
func TestStatsAndMetrics(t *testing.T) {
	s := tinyStore(t, 0)
	loadStore(t, s, genRecs(4000, 8))
	if err := s.SortKey(func(r *rec) uint64 { return r.K }); err != nil {
		t.Fatalf("SortKey: %v", err)
	}
	st := s.Stats()
	if st.SpilledBytes <= 0 || st.RunFiles <= 0 || st.MergePasses <= 0 || st.ResidentPeakBytes <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
	if st.BudgetBytes != 1 {
		t.Fatalf("BudgetBytes = %d, want 1", st.BudgetBytes)
	}
}
