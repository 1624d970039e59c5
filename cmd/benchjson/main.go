// Command benchjson is the bench-regression gate's plumbing: it converts
// `go test -bench` output into a stable JSON profile and compares two such
// profiles against a regression threshold. It exists so CI needs no
// third-party benchstat dependency.
//
// Convert (reads bench output from stdin; -benchmem columns, when present,
// are recorded as bytes_per_op / allocs_per_op, and any custom
// testing.B.ReportMetric columns — edges/s, peak_rss_bytes, mpc-rounds — land
// in the per-benchmark "extra" map):
//
//	go test -run '^$' -bench . -benchtime 3x -count 3 -benchmem ./... | benchjson -out BENCH_spanner.json
//
// Compare (exit 1 if any benchmark present in both profiles slowed down —
// allocated more, or lost custom "/s" throughput — by more than the
// threshold factor, or changed a deterministic counter at all; flags must
// precede the file arguments, as Go's flag parsing stops at the first
// positional):
//
//	benchjson -compare -threshold 1.25 [-md summary.md] BENCH_spanner.json BENCH_new.json
//
// -md additionally writes the comparison as a markdown delta table (CI
// appends it to the job summary so a regression is diagnosable without
// rerunning locally).
//
// Profiles key benchmarks by their name with the trailing -GOMAXPROCS
// suffix stripped, and record the minimum ns/op (and minimum B/op and
// allocs/op) over all samples of a name (the least-noise estimator for
// -count repeats). Comparison only considers names present in both
// profiles, so machines with different core counts — which emit different
// workers=N sub-benchmarks — compare on their shared serial rows; names
// missing from either side are reported as warnings. Alloc gating is
// additionally skipped for rows whose baseline predates the -benchmem
// schema (no allocs_per_op recorded) and for regressions of fewer than
// allocSlack objects — a 0→2 allocs/op jump on a near-allocation-free
// benchmark is noise, not a leak.
//
// Raw ns/op is only comparable on like hardware, so profiles record the
// `cpu:` line go test prints. When the two profiles come from different
// CPUs the comparison report still prints but the timing gate exits 0 with
// a calibration notice — commit the freshly produced profile as the new
// baseline to arm the gate on that hardware. On matching CPUs the
// threshold is enforced strictly. Alloc counts are hardware-independent in
// principle, but scheduling-dependent in practice (pool misses, goroutine
// closures), so they gate under the same like-hardware rule.
//
// The deterministic counters (exactUnits: simulated rounds, spanner size,
// the spill traffic of a budgeted build, and the relaxations of a serial
// shortest-path kernel) are functions of the code and the seed alone, so they compare exactly on any hardware: any change fails
// the gate, as does a counter the baseline row has and the fresh row lost.
// A change that moves one on purpose re-blesses the baseline. Conversion
// holds them to the same rule across -count samples: two samples of one
// row that disagree on a counter fail the conversion, naming both values.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark's recorded cost. HasMem marks rows measured with
// -benchmem; when it is false BytesPerOp/AllocsPerOp hold zero values and
// carry no meaning (profiles predating the memory schema omit all three
// fields). Extra carries every custom-unit column a benchmark reported via
// testing.B.ReportMetric (edges/s, peak_rss_bytes, mpc-rounds, …), keyed by
// unit; across -count samples a "/s" unit keeps its maximum (throughput:
// higher is better), an exactUnits counter must read the same in every
// sample (conversion fails otherwise), and everything else keeps its
// minimum.
type Entry struct {
	NsPerOp     float64            `json:"ns_per_op"`
	Samples     int                `json:"samples"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	HasMem      bool               `json:"has_mem,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// MarshalJSON emits the memory columns explicitly whenever the row was
// measured with -benchmem: a 0-alloc benchmark records literal zeros instead
// of omitting the fields, so has_mem:true rows always carry both columns —
// an omitted column means "not measured", never "measured zero".
func (e Entry) MarshalJSON() ([]byte, error) {
	type wire struct {
		NsPerOp     float64            `json:"ns_per_op"`
		Samples     int                `json:"samples"`
		BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
		AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
		HasMem      bool               `json:"has_mem,omitempty"`
		Extra       map[string]float64 `json:"extra,omitempty"`
	}
	w := wire{NsPerOp: e.NsPerOp, Samples: e.Samples, HasMem: e.HasMem, Extra: e.Extra}
	if e.HasMem {
		w.BytesPerOp, w.AllocsPerOp = &e.BytesPerOp, &e.AllocsPerOp
	}
	return json.Marshal(w)
}

// Profile is the serialized BENCH_*.json shape.
type Profile struct {
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// benchLine matches "BenchmarkName-8   3   12345678 ns/op ..." (the value
// may be fractional, e.g. "0.5 ns/op").
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+(?:e[+-]?\d+)?) ns/op`)

// memCols matches the -benchmem suffix "... 456 B/op  7 allocs/op".
var memCols = regexp.MustCompile(`([0-9.]+(?:e[+-]?\d+)?) B/op\s+([0-9.]+(?:e[+-]?\d+)?) allocs/op`)

// extraCols matches one "value unit" column — the shape every
// testing.B.ReportMetric metric prints in (the standard ns/op and -benchmem
// columns match too and are filtered by name).
var extraCols = regexp.MustCompile(`([0-9.]+(?:e[+-]?\d+)?)\s+([A-Za-z][A-Za-z0-9_./%-]*)`)

// standardUnits are the columns already captured by the dedicated fields.
var standardUnits = map[string]bool{"ns/op": true, "B/op": true, "allocs/op": true}

// procSuffix strips the trailing -GOMAXPROCS decoration go test appends, so
// profiles from machines with different core counts share keys.
var procSuffix = regexp.MustCompile(`-\d+$`)

// allocSlack is the absolute allocs/op increase below which the alloc gate
// never fires: ratio thresholds are meaningless against a ~0 baseline.
const allocSlack = 16.0

// exactUnits are the custom units no noise can move: equal code and seeds
// reproduce them exactly on any machine, so -compare requires equality.
var exactUnits = map[string]bool{
	"mpc-rounds":    true,
	"spanner-edges": true,
	"spilled_bytes": true,
	"run_files":     true,
	"merge_passes":  true,
	"relaxations":   true,
}

func main() {
	out := flag.String("out", "", "write the converted profile to this file (default stdout)")
	compare := flag.Bool("compare", false, "compare two profiles: benchjson -compare baseline.json new.json")
	threshold := flag.Float64("threshold", 1.25, "fail -compare when new/baseline ns/op (or allocs/op) exceeds this factor")
	md := flag.String("md", "", "with -compare, also write a markdown delta table to this file")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchjson -compare [-threshold 1.25] [-md summary.md] baseline.json new.json")
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold, *md))
	}
	if flag.NArg() != 0 {
		fatalf("usage: benchjson [-out file] < bench-output")
	}
	prof := parse(os.Stdin)
	if len(prof.Benchmarks) == 0 {
		fatalf("benchjson: no benchmark lines found on stdin")
	}
	data, err := json.MarshalIndent(prof, "", "  ")
	if err != nil {
		fatalf("benchjson: %v", err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatalf("benchjson: %v", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(prof.Benchmarks), *out)
}

// parse folds bench output into a profile, keeping the minimum ns/op (and
// minimum memory columns) per (suffix-stripped) name.
func parse(f *os.File) Profile {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	prof, err := parseLines(sc)
	if err != nil {
		fatalf("benchjson: %v", err)
	}
	if err := sc.Err(); err != nil {
		fatalf("benchjson: reading stdin: %v", err)
	}
	return prof
}

func parseLines(sc *bufio.Scanner) (Profile, error) {
	prof := Profile{Benchmarks: map[string]Entry{}}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok && prof.CPU == "" {
			prof.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		e, ok := prof.Benchmarks[name]
		if !ok || ns < e.NsPerOp {
			e.NsPerOp = ns
		}
		if mm := memCols.FindStringSubmatch(line); mm != nil {
			bytes, errB := strconv.ParseFloat(mm[1], 64)
			allocs, errA := strconv.ParseFloat(mm[2], 64)
			if errB == nil && errA == nil {
				if !e.HasMem || bytes < e.BytesPerOp {
					e.BytesPerOp = bytes
				}
				if !e.HasMem || allocs < e.AllocsPerOp {
					e.AllocsPerOp = allocs
				}
				e.HasMem = true
			}
		}
		for _, mm := range extraCols.FindAllStringSubmatch(line, -1) {
			unit := mm[2]
			if standardUnits[unit] {
				continue
			}
			v, err := strconv.ParseFloat(mm[1], 64)
			if err != nil {
				continue
			}
			if e.Extra == nil {
				e.Extra = map[string]float64{}
			}
			old, seen := e.Extra[unit]
			if seen && exactUnits[unit] && v != old {
				return prof, fmt.Errorf("%s: deterministic counter %s differs between samples: %s vs %s",
					name, unit, fmtUnit(unit, old), fmtUnit(unit, v))
			}
			throughput := strings.HasSuffix(unit, "/s")
			if !seen || (throughput && v > old) || (!throughput && v < old) {
				e.Extra[unit] = v
			}
		}
		e.Samples++
		prof.Benchmarks[name] = e
	}
	return prof, nil
}

func load(path string) Profile {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("benchjson: %v", err)
	}
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		fatalf("benchjson: parsing %s: %v", path, err)
	}
	return p
}

// row is one comparison line, retained so the text report and the markdown
// table render from the same verdicts.
type row struct {
	name           string
	status         string // "ok", "FAIL", "WARN", "NEW"
	base, fresh    Entry
	ratio          float64 // ns/op ratio
	allocRatio     float64 // allocs/op ratio when both sides carry mem data
	hasAllocs      bool
	timeRegressed  bool
	allocRegressed bool
	extras         []extraDelta // custom-unit metrics, sorted by unit
	extraRegressed bool         // any "/s" unit fell below baseline/threshold
	counterChanged bool         // any exactUnits counter differs or went missing
}

// extraDelta is one custom-unit metric's old-vs-new verdict. Throughput
// units ("/s" suffix: higher is better) gate on the threshold — a drop such
// that base/fresh exceeds it is a regression, mirroring the ns/op rule with
// the polarity flipped. exactUnits counters gate on any difference, or on
// being absent from the fresh row. Other gauge-style units
// (peak_rss_bytes) are carried for the report but never fail the gate.
type extraDelta struct {
	unit        string
	base, fresh float64
	missing     bool // an exactUnits counter the fresh row lacks
	regressed   bool // a "/s" unit fell past the threshold
	changed     bool // an exactUnits counter differs or is missing
}

// compareProfiles builds the per-benchmark verdicts.
func compareProfiles(base, fresh Profile, threshold float64) []row {
	var names []string
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []row
	for _, name := range names {
		b := base.Benchmarks[name]
		n, ok := fresh.Benchmarks[name]
		if !ok {
			rows = append(rows, row{name: name, status: "WARN", base: b})
			continue
		}
		r := row{name: name, base: b, fresh: n, ratio: n.NsPerOp / b.NsPerOp, status: "ok"}
		if r.ratio > threshold {
			r.timeRegressed = true
		}
		if b.HasMem && n.HasMem {
			r.hasAllocs = true
			if b.AllocsPerOp > 0 {
				r.allocRatio = n.AllocsPerOp / b.AllocsPerOp
				r.allocRegressed = r.allocRatio > threshold && n.AllocsPerOp-b.AllocsPerOp > allocSlack
			} else {
				// Zero-alloc baseline: the true ratio is infinite, so no
				// finite threshold may waive the regression — gate purely on
				// the absolute jump. The display ratio is jump+1 (what the
				// ratio would be against a 1-alloc baseline).
				r.allocRatio = n.AllocsPerOp + 1
				r.allocRegressed = n.AllocsPerOp > allocSlack
			}
		}
		var units []string
		for u := range b.Extra {
			if _, ok := n.Extra[u]; ok || exactUnits[u] {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			fresh, ok := n.Extra[u]
			d := extraDelta{unit: u, base: b.Extra[u], fresh: fresh, missing: !ok}
			if strings.HasSuffix(u, "/s") && d.base > 0 {
				d.regressed = d.fresh <= 0 || d.base/d.fresh > threshold
			}
			d.changed = exactUnits[u] && (d.missing || d.fresh != d.base)
			r.extraRegressed = r.extraRegressed || d.regressed
			r.counterChanged = r.counterChanged || d.changed
			r.extras = append(r.extras, d)
		}
		if r.timeRegressed || r.allocRegressed || r.extraRegressed || r.counterChanged {
			r.status = "FAIL"
		}
		rows = append(rows, r)
	}
	var extra []string
	for name := range fresh.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		rows = append(rows, row{name: name, status: "NEW", fresh: fresh.Benchmarks[name]})
	}
	return rows
}

// runCompare prints a per-benchmark report (and optionally a markdown table)
// and returns the process exit code: 1 if any shared benchmark changed a
// deterministic counter, or regressed beyond the threshold on like
// hardware.
func runCompare(basePath, newPath string, threshold float64, mdPath string) int {
	base, fresh := load(basePath), load(newPath)
	rows := compareProfiles(base, fresh, threshold)

	regressed, changed, compared := 0, 0, 0
	for _, r := range rows {
		switch r.status {
		case "WARN":
			fmt.Printf("WARN  %-70s missing from %s\n", r.name, newPath)
			continue
		case "NEW":
			fmt.Printf("NEW   %-70s %12.0f ns/op (not in baseline)\n", r.name, r.fresh.NsPerOp)
			continue
		}
		compared++
		if r.timeRegressed || r.allocRegressed || r.extraRegressed {
			regressed++
		}
		if r.counterChanged {
			changed++
		}
		line := fmt.Sprintf("%-5s %-70s %12.0f -> %12.0f ns/op  (%.2fx)", r.status, r.name, r.base.NsPerOp, r.fresh.NsPerOp, r.ratio)
		if r.hasAllocs {
			line += fmt.Sprintf("  %10.0f -> %10.0f allocs/op", r.base.AllocsPerOp, r.fresh.AllocsPerOp)
			if r.allocRegressed {
				line += " (ALLOC REGRESSION)"
			}
		}
		for _, d := range r.extras {
			line += fmt.Sprintf("  %s %s -> %s", d.unit, fmtUnit(d.unit, d.base), d.freshCell())
			if d.regressed {
				line += " (THROUGHPUT REGRESSION)"
			}
			if d.changed {
				line += " (COUNTER CHANGED)"
			}
		}
		fmt.Println(line)
	}

	sameHW := !(base.CPU != "" && fresh.CPU != "" && base.CPU != fresh.CPU)
	if mdPath != "" {
		if err := os.WriteFile(mdPath, []byte(markdownReport(rows, base.CPU, fresh.CPU, threshold, sameHW)), 0o644); err != nil {
			fatalf("benchjson: writing %s: %v", mdPath, err)
		}
	}

	if compared == 0 {
		fmt.Println("FAIL  no shared benchmarks between the profiles")
		return 1
	}
	if !sameHW {
		fmt.Printf("NOTE  baseline CPU %q != current CPU %q: raw ns/op is not comparable across hardware.\n", base.CPU, fresh.CPU)
		fmt.Println("NOTE  timing gate is ADVISORY on this run — commit the fresh profile as the baseline to arm it on this hardware.")
		if regressed > 0 {
			fmt.Printf("NOTE  %d of %d shared benchmarks exceeded %.2fx (not failing: hardware mismatch)\n", regressed, compared, threshold)
		}
	}
	if changed > 0 {
		fmt.Printf("FAIL  %d of %d shared benchmarks changed a deterministic counter; re-bless the baseline if the change is intended\n", changed, compared)
		return 1
	}
	if !sameHW {
		return 0
	}
	if regressed > 0 {
		fmt.Printf("FAIL  %d of %d shared benchmarks regressed beyond %.2fx\n", regressed, compared, threshold)
		return 1
	}
	fmt.Printf("ok    %d shared benchmarks within %.2fx of the baseline\n", compared, threshold)
	return 0
}

// markdownReport renders the verdicts as the old-vs-new delta table CI posts
// to the job summary.
func markdownReport(rows []row, baseCPU, freshCPU string, threshold float64, sameHW bool) string {
	var sb strings.Builder
	sb.WriteString("## Bench regression report\n\n")
	fmt.Fprintf(&sb, "Threshold: %.2fx · baseline CPU: `%s` · this run: `%s`\n\n", threshold, orDash(baseCPU), orDash(freshCPU))
	if !sameHW {
		sb.WriteString("> ⚠️ Hardware mismatch — timing gate advisory; deterministic counters still gate. The baseline recalibrates on push to main.\n\n")
	}
	sb.WriteString("| status | benchmark | ns/op (old → new) | Δtime | allocs/op (old → new) | custom units (old → new) |\n")
	sb.WriteString("|---|---|---|---|---|---|\n")
	for _, r := range rows {
		switch r.status {
		case "WARN":
			fmt.Fprintf(&sb, "| ⚠️ missing | `%s` | %.0f → — | — | — | — |\n", r.name, r.base.NsPerOp)
		case "NEW":
			allocs := "—"
			if r.fresh.HasMem {
				allocs = fmt.Sprintf("— → %.0f", r.fresh.AllocsPerOp)
			}
			extras := "—"
			if len(r.fresh.Extra) > 0 {
				var units []string
				for u := range r.fresh.Extra {
					units = append(units, u)
				}
				sort.Strings(units)
				var parts []string
				for _, u := range units {
					parts = append(parts, fmt.Sprintf("%s — → %s", u, fmtUnit(u, r.fresh.Extra[u])))
				}
				extras = strings.Join(parts, " · ")
			}
			fmt.Fprintf(&sb, "| 🆕 new | `%s` | — → %.0f | — | %s | %s |\n", r.name, r.fresh.NsPerOp, allocs, extras)
		default:
			icon := "✅"
			if r.status == "FAIL" {
				icon = "❌"
			}
			allocs := "—"
			if r.hasAllocs {
				allocs = fmt.Sprintf("%.0f → %.0f", r.base.AllocsPerOp, r.fresh.AllocsPerOp)
				if r.allocRegressed {
					allocs += " ❌"
				}
			}
			extras := "—"
			if len(r.extras) > 0 {
				var parts []string
				for _, d := range r.extras {
					part := fmt.Sprintf("%s %s → %s", d.unit, fmtUnit(d.unit, d.base), d.freshCell())
					if d.regressed || d.changed {
						part += " ❌"
					}
					parts = append(parts, part)
				}
				extras = strings.Join(parts, " · ")
			}
			fmt.Fprintf(&sb, "| %s | `%s` | %.0f → %.0f | %.2fx | %s | %s |\n",
				icon, r.name, r.base.NsPerOp, r.fresh.NsPerOp, r.ratio, allocs, extras)
		}
	}
	return sb.String()
}

// fmtUnit renders a custom-unit value: exactUnits counters in full, so a
// changed counter never prints as its unchanged rounding, and everything
// else to three significant digits.
func fmtUnit(unit string, v float64) string {
	if exactUnits[unit] {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return fmt.Sprintf("%.3g", v)
}

// freshCell renders the fresh side of a delta, or "missing".
func (d extraDelta) freshCell() string {
	if d.missing {
		return "missing"
	}
	return fmtUnit(d.unit, d.fresh)
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
