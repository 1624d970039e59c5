package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMPCBuild/n=20k/k=16/t=4/workers=1-8   1   250000000 ns/op   147.0 mpc-rounds   38716024 B/op   440 allocs/op
BenchmarkMPCBuild/n=20k/k=16/t=4/workers=1-8   1   240000000 ns/op   147.0 mpc-rounds   38700000 B/op   444 allocs/op
BenchmarkSimSortByKey-8                        3    11367015 ns/op          0 B/op        0 allocs/op
BenchmarkOldSchema                             5     1000000 ns/op
PASS
`

func parseString(t *testing.T, s string) Profile {
	t.Helper()
	prof, err := parseLines(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestParseRecordsMemColumnsAndMinimum(t *testing.T) {
	prof := parseString(t, sampleBench)
	if prof.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", prof.CPU)
	}
	e, ok := prof.Benchmarks["BenchmarkMPCBuild/n=20k/k=16/t=4/workers=1"]
	if !ok {
		t.Fatalf("missing MPCBuild entry; have %v", prof.Benchmarks)
	}
	if e.NsPerOp != 240000000 {
		t.Errorf("ns_per_op = %v, want the 240000000 minimum", e.NsPerOp)
	}
	if !e.HasMem || e.AllocsPerOp != 440 || e.BytesPerOp != 38700000 {
		t.Errorf("mem columns = (%v B, %v allocs, hasMem=%v), want minimums (38700000, 440, true)", e.BytesPerOp, e.AllocsPerOp, e.HasMem)
	}
	if e.Samples != 2 {
		t.Errorf("samples = %d, want 2", e.Samples)
	}
	zero := prof.Benchmarks["BenchmarkSimSortByKey"]
	if !zero.HasMem || zero.AllocsPerOp != 0 {
		t.Errorf("zero-alloc row must record has_mem with 0 allocs, got %+v", zero)
	}
	old := prof.Benchmarks["BenchmarkOldSchema"]
	if old.HasMem {
		t.Errorf("row without -benchmem columns must not claim mem data: %+v", old)
	}
}

func TestParseCapturesCustomUnits(t *testing.T) {
	// Two samples of a ReportMetric-instrumented benchmark: throughput
	// ("/s") keeps the max across samples, gauges keep the min, and the
	// standard columns never leak into Extra.
	bench := `cpu: fake
BenchmarkSSSP/n=1M/engine=delta/workers=0-8   1   670570688 ns/op   17900000 edges/s   839282688 peak_rss_bytes   120 B/op   3 allocs/op
BenchmarkSSSP/n=1M/engine=delta/workers=0-8   1   680000000 ns/op   17500000 edges/s   839000000 peak_rss_bytes   120 B/op   3 allocs/op
BenchmarkPlain-8                              5     1000000 ns/op   10 B/op   1 allocs/op
`
	prof := parseString(t, bench)
	e := prof.Benchmarks["BenchmarkSSSP/n=1M/engine=delta/workers=0"]
	if e.Extra["edges/s"] != 17900000 {
		t.Errorf("edges/s = %v, want the 17900000 maximum (higher is better)", e.Extra["edges/s"])
	}
	if e.Extra["peak_rss_bytes"] != 839000000 {
		t.Errorf("peak_rss_bytes = %v, want the 839000000 minimum", e.Extra["peak_rss_bytes"])
	}
	for _, std := range []string{"ns/op", "B/op", "allocs/op"} {
		if _, ok := e.Extra[std]; ok {
			t.Errorf("standard unit %q leaked into Extra: %v", std, e.Extra)
		}
	}
	if len(e.Extra) != 2 {
		t.Errorf("Extra = %v, want exactly edges/s and peak_rss_bytes", e.Extra)
	}
	if plain := prof.Benchmarks["BenchmarkPlain"]; plain.Extra != nil {
		t.Errorf("benchmark without custom columns must keep Extra nil, got %v", plain.Extra)
	}
	// The long-standing mpc-rounds column rides the same path.
	rounds := parseString(t, sampleBench).Benchmarks["BenchmarkMPCBuild/n=20k/k=16/t=4/workers=1"]
	if rounds.Extra["mpc-rounds"] != 147 {
		t.Errorf("mpc-rounds = %v, want 147", rounds.Extra["mpc-rounds"])
	}
}

// TestParseRejectsDisagreeingCounters pins that a deterministic counter
// may not differ between -count samples of one row: conversion fails,
// naming the row, the unit and both values, instead of keeping the minimum.
func TestParseRejectsDisagreeingCounters(t *testing.T) {
	row := "BenchmarkMPCBuildSpill/n=1M/k=8/t=3/budget=quarter-8   1   9000000000 ns/op   %s spilled_bytes   96 run_files\n"
	equal := fmt.Sprintf(row, "917624512") + fmt.Sprintf(row, "917624512")
	e := parseString(t, equal).Benchmarks["BenchmarkMPCBuildSpill/n=1M/k=8/t=3/budget=quarter"]
	if e.Samples != 2 || e.Extra["spilled_bytes"] != 917624512 {
		t.Fatalf("equal samples folded to %+v, want one entry with samples: 2", e)
	}
	differ := fmt.Sprintf(row, "917624512") + fmt.Sprintf(row, "917624999")
	_, err := parseLines(bufio.NewScanner(strings.NewReader(differ)))
	if err == nil {
		t.Fatal("two samples disagreeing on spilled_bytes converted without an error")
	}
	for _, want := range []string{"BenchmarkMPCBuildSpill/n=1M/k=8/t=3/budget=quarter", "spilled_bytes", "917624512", "917624999"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

func TestMarshalEmitsExplicitMemZeros(t *testing.T) {
	// A 0-alloc -benchmem row must serialize literal zeros: an omitted
	// column means "not measured", never "measured zero".
	data, err := json.Marshal(Entry{NsPerOp: 5, Samples: 3, HasMem: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"bytes_per_op":0`, `"allocs_per_op":0`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("has_mem entry missing %s: %s", want, data)
		}
	}
	// Rows without mem data still omit the columns entirely.
	data, err = json.Marshal(Entry{NsPerOp: 5, Samples: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, ban := range []string{"bytes_per_op", "allocs_per_op", "has_mem"} {
		if strings.Contains(string(data), ban) {
			t.Errorf("no-mem entry must omit %s: %s", ban, data)
		}
	}
	// Round trip: explicit zeros decode back as measured.
	var e Entry
	if err := json.Unmarshal([]byte(`{"ns_per_op":5,"samples":3,"bytes_per_op":0,"allocs_per_op":0,"has_mem":true}`), &e); err != nil {
		t.Fatal(err)
	}
	if !e.HasMem || e.AllocsPerOp != 0 {
		t.Errorf("round-tripped entry = %+v", e)
	}
}

func TestCompareGatesThroughputUnits(t *testing.T) {
	base := mkProfile("x", map[string]Entry{
		"BenchmarkDrop":  {NsPerOp: 100, Extra: map[string]float64{"edges/s": 1e7}},
		"BenchmarkHold":  {NsPerOp: 100, Extra: map[string]float64{"edges/s": 1e7}},
		"BenchmarkGauge": {NsPerOp: 100, Extra: map[string]float64{"peak_rss_bytes": 1e6}},
		"BenchmarkMixed": {NsPerOp: 100, Extra: map[string]float64{"edges/s": 1e7, "peak_rss_bytes": 1e6}},
	})
	fresh := mkProfile("x", map[string]Entry{
		"BenchmarkDrop":  {NsPerOp: 100, Extra: map[string]float64{"edges/s": 5e6}},
		"BenchmarkHold":  {NsPerOp: 100, Extra: map[string]float64{"edges/s": 9e6}},
		"BenchmarkGauge": {NsPerOp: 100, Extra: map[string]float64{"peak_rss_bytes": 1e9}},
		"BenchmarkMixed": {NsPerOp: 100, Extra: map[string]float64{"edges/s": 9.9e6, "peak_rss_bytes": 2e6}},
	})
	rows := compareProfiles(base, fresh, 1.25)
	got := map[string]row{}
	for _, r := range rows {
		got[r.name] = r
	}
	if r := got["BenchmarkDrop"]; r.status != "FAIL" || !r.extraRegressed {
		t.Errorf("2x edges/s drop must fail: %+v", r)
	}
	if r := got["BenchmarkHold"]; r.status != "ok" {
		t.Errorf("10%% edges/s drop is within the 1.25x threshold: %+v", r)
	}
	if r := got["BenchmarkGauge"]; r.status != "ok" || r.extraRegressed {
		t.Errorf("gauge units (peak_rss_bytes) must never gate: %+v", r)
	}
	if r := got["BenchmarkMixed"]; r.status != "ok" || len(r.extras) != 2 {
		t.Errorf("mixed row must carry both units and pass: %+v", r)
	}
	// Throughput collapsing to zero regresses regardless of threshold.
	zb := mkProfile("x", map[string]Entry{"BenchmarkDead": {NsPerOp: 1, Extra: map[string]float64{"edges/s": 1e7}}})
	zf := mkProfile("x", map[string]Entry{"BenchmarkDead": {NsPerOp: 1, Extra: map[string]float64{"edges/s": 0}}})
	if zr := compareProfiles(zb, zf, 100)[0]; zr.status != "FAIL" {
		t.Errorf("throughput hitting zero must fail even at threshold 100: %+v", zr)
	}
	// The markdown table renders the shared units with the failure marker.
	md := markdownReport(rows, "x", "x", 1.25, true)
	if !strings.Contains(md, "edges/s 1e+07 → 5e+06 ❌") {
		t.Errorf("markdown report missing the regressed edges/s cell:\n%s", md)
	}
	if !strings.Contains(md, "custom units") {
		t.Errorf("markdown header missing the custom-units column:\n%s", md)
	}
}

func mkProfile(cpu string, entries map[string]Entry) Profile {
	return Profile{CPU: cpu, Benchmarks: entries}
}

func TestCompareGatesTimeAndAllocRegressions(t *testing.T) {
	base := mkProfile("x", map[string]Entry{
		"BenchmarkFast":     {NsPerOp: 100, HasMem: true, AllocsPerOp: 1000, BytesPerOp: 10},
		"BenchmarkSlow":     {NsPerOp: 100, HasMem: true, AllocsPerOp: 1000, BytesPerOp: 10},
		"BenchmarkLeaky":    {NsPerOp: 100, HasMem: true, AllocsPerOp: 1000, BytesPerOp: 10},
		"BenchmarkTinyJump": {NsPerOp: 100, HasMem: true, AllocsPerOp: 0, BytesPerOp: 0},
		"BenchmarkNoMem":    {NsPerOp: 100},
		"BenchmarkGone":     {NsPerOp: 100},
	})
	fresh := mkProfile("x", map[string]Entry{
		"BenchmarkFast":     {NsPerOp: 90, HasMem: true, AllocsPerOp: 900, BytesPerOp: 10},
		"BenchmarkSlow":     {NsPerOp: 200, HasMem: true, AllocsPerOp: 1000, BytesPerOp: 10},
		"BenchmarkLeaky":    {NsPerOp: 100, HasMem: true, AllocsPerOp: 2000, BytesPerOp: 10},
		"BenchmarkTinyJump": {NsPerOp: 100, HasMem: true, AllocsPerOp: 4, BytesPerOp: 64},
		"BenchmarkNoMem":    {NsPerOp: 100, HasMem: true, AllocsPerOp: 5},
		"BenchmarkNew":      {NsPerOp: 50},
	})
	rows := compareProfiles(base, fresh, 1.25)
	got := map[string]row{}
	for _, r := range rows {
		got[r.name] = r
	}
	if got["BenchmarkFast"].status != "ok" {
		t.Errorf("Fast: %+v, want ok", got["BenchmarkFast"])
	}
	if r := got["BenchmarkSlow"]; r.status != "FAIL" || !r.timeRegressed || r.allocRegressed {
		t.Errorf("Slow must fail on time only: %+v", r)
	}
	if r := got["BenchmarkLeaky"]; r.status != "FAIL" || !r.allocRegressed || r.timeRegressed {
		t.Errorf("Leaky must fail on allocs only: %+v", r)
	}
	if r := got["BenchmarkTinyJump"]; r.status != "ok" {
		t.Errorf("TinyJump (0→4 allocs, under the absolute slack) must pass: %+v", r)
	}
	// Zero-alloc baseline with a jump beyond the slack: no finite threshold
	// may waive it.
	zb := mkProfile("x", map[string]Entry{"BenchmarkZeroBase": {NsPerOp: 100, HasMem: true}})
	zf := mkProfile("x", map[string]Entry{"BenchmarkZeroBase": {NsPerOp: 100, HasMem: true, AllocsPerOp: 25}})
	zr := compareProfiles(zb, zf, 30)[0]
	if zr.status != "FAIL" || !zr.allocRegressed {
		t.Errorf("0→25 allocs must fail even at threshold 30: %+v", zr)
	}
	if r := got["BenchmarkNoMem"]; r.status != "ok" || r.hasAllocs {
		t.Errorf("NoMem baseline must skip the alloc gate: %+v", r)
	}
	if got["BenchmarkGone"].status != "WARN" || got["BenchmarkNew"].status != "NEW" {
		t.Errorf("Gone/New classification wrong: %+v / %+v", got["BenchmarkGone"], got["BenchmarkNew"])
	}
}

func TestMarkdownReportRendersAllRowKinds(t *testing.T) {
	base := mkProfile("cpuA", map[string]Entry{
		"BenchmarkA": {NsPerOp: 100, HasMem: true, AllocsPerOp: 10},
		"BenchmarkB": {NsPerOp: 100},
	})
	fresh := mkProfile("cpuA", map[string]Entry{
		"BenchmarkA": {NsPerOp: 300, HasMem: true, AllocsPerOp: 10},
		"BenchmarkC": {NsPerOp: 5, HasMem: true, AllocsPerOp: 0},
	})
	md := markdownReport(compareProfiles(base, fresh, 1.25), "cpuA", "cpuA", 1.25, true)
	for _, want := range []string{"| ❌ |", "⚠️ missing", "🆕 new", "3.00x", "`BenchmarkA`"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown report missing %q:\n%s", want, md)
		}
	}
	mismatch := markdownReport(nil, "cpuA", "cpuB", 1.25, false)
	if !strings.Contains(mismatch, "Hardware mismatch") {
		t.Errorf("hardware-mismatch notice missing:\n%s", mismatch)
	}
}

// TestCompareGatesDeterministicCounters pins the exact-counter rule: a
// profile pair that differs only in spilled_bytes, or only in a serial
// kernel's relaxations, fails, on like hardware and across CPUs alike, as
// does a counter the fresh row lost; a pair that differs only in
// peak_rss_bytes passes.
func TestCompareGatesDeterministicCounters(t *testing.T) {
	spill := func(cpu string, spilled float64, rss float64) Profile {
		return mkProfile(cpu, map[string]Entry{
			"BenchmarkMPCBuildSpill/n=1M/k=8/t=3/budget=quarter": {NsPerOp: 100, HasMem: true, AllocsPerOp: 10,
				Extra: map[string]float64{"spilled_bytes": spilled, "run_files": 29, "merge_passes": 2, "peak_rss_bytes": rss}},
		})
	}
	point := func(cpu string, relaxations float64) Profile {
		return mkProfile(cpu, map[string]Entry{
			"BenchmarkDistsToPoint/graph=spanner-like-40k": {NsPerOp: 100, HasMem: true,
				Extra: map[string]float64{"relaxations": relaxations}},
		})
	}
	spillBase := spill("cpuA", 915_000_000, 7e8)
	// runCompare prints its report to stdout; keep it out of the test log,
	// where its "FAIL" lines would read like the suite's own.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()
	for _, tc := range []struct {
		name        string
		base, fresh Profile
		want        int
	}{
		{"spilled_bytes, same cpu", spillBase, spill("cpuA", 915_000_001, 7e8), 1},
		{"spilled_bytes, other cpu", spillBase, spill("cpuB", 915_000_001, 7e8), 1},
		{"peak_rss_bytes, same cpu", spillBase, spill("cpuA", 915_000_000, 9e8), 0},
		{"peak_rss_bytes, other cpu", spillBase, spill("cpuB", 915_000_000, 9e8), 0},
		{"run_files missing", spillBase, mkProfile("cpuA", map[string]Entry{
			"BenchmarkMPCBuildSpill/n=1M/k=8/t=3/budget=quarter": {NsPerOp: 100, HasMem: true, AllocsPerOp: 10,
				Extra: map[string]float64{"spilled_bytes": 915_000_000, "merge_passes": 2, "peak_rss_bytes": 7e8}},
		}), 1},
		{"relaxations, other cpu", point("cpuA", 521_534), point("cpuB", 521_535), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows := compareProfiles(tc.base, tc.fresh, 1.25)
			if len(rows) != 1 {
				t.Fatalf("rows = %+v", rows)
			}
			if r := rows[0]; r.counterChanged != (tc.want == 1) || (r.status == "FAIL") != (tc.want == 1) {
				t.Errorf("row %+v, want counterChanged and FAIL = %v", r, tc.want == 1)
			}
			dir := t.TempDir()
			write := func(name string, p Profile) string {
				path := filepath.Join(dir, name)
				data, err := json.Marshal(p)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				return path
			}
			md := filepath.Join(dir, "compare.md")
			if got := runCompare(write("base.json", tc.base), write("fresh.json", tc.fresh), 1.25, md); got != tc.want {
				t.Errorf("runCompare exit code %d, want %d", got, tc.want)
			}
			report, err := os.ReadFile(md)
			if err != nil {
				t.Fatal(err)
			}
			if marked := strings.Contains(string(report), "❌"); marked != (tc.want == 1) {
				t.Errorf("markdown failure marker present = %v, want %v:\n%s", marked, tc.want == 1, report)
			}
		})
	}
}
