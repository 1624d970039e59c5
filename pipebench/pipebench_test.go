package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
)

// TestTinyWorkloads runs both workloads end to end on a 2k-vertex input,
// untraced and traced, with every correctness check on.
func TestTinyWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole pipeline four times")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.n, w.lightRate, w.ladder, w.setupReps = 2000, 500, []float64{600, 700}, 2
			out := t.TempDir()
			for _, traced := range []bool{false, true} {
				res, err := execute(context.Background(), w, 7, 2, traced, out, io.Discard)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				line := res.line()
				if !line.Correct || line.Failed != 0 || line.Attempted < minLight {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d: %v",
						traced, line.Correct, line.Failed, line.Attempted, res.v.problems)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				for _, m := range want {
					if _, ok := line.Metrics[m.name]; !ok {
						t.Errorf("traced=%v: metric %s missing", traced, m.name)
					}
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(line.Metrics), len(want))
				}
				for _, m := range endToEnd {
					if v := res.e2e[m.name]; !(v > 0) {
						t.Errorf("traced=%v: end-to-end metric %s = %v, want > 0", traced, m.name, v)
					}
				}
				if !traced {
					continue
				}
				spilled := res.layer["extmem.spilled_gb"] > 0 && res.layer["extmem.merge_passes"] > 0
				if spilled != (w.budget > 0) {
					t.Errorf("extmem.spilled_gb = %v with budget share %v", res.layer["extmem.spilled_gb"], w.budget)
				}
				if h := res.layer["oracle.hit_ratio"]; w.hot > 0 && h < 0.99 {
					t.Errorf("oracle.hit_ratio = %v on a warmed hot set", h)
				}
			}
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metric and
// workload tables the command reports from.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the command has %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != m.bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command has %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

func TestWireFormat(t *testing.T) {
	body := appendQuery(nil, []pair{{0, 9}, {3, 4}})
	if got, want := string(body), `{"pairs":[{"u":0,"v":9},{"u":3,"v":4}]}`; got != want {
		t.Errorf("appendQuery = %s, want %s", got, want)
	}
	ds, err := parseDistances([]byte("{\"distances\":[1.5,null,0.1]}\n"), nil)
	if err != nil || len(ds) != 3 || ds[0] != 1.5 || !(ds[1] > 1e308) || ds[2] != 0.1 {
		t.Errorf("parseDistances = %v, %v", ds, err)
	}
	if _, err := parseDistances([]byte(`{"error":{}}`), nil); err == nil {
		t.Error("parseDistances accepted an error body")
	}
}
