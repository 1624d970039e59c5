package mpc

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mpcspanner/internal/extmem"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
)

// TestSpilledBuildBitIdentical is the out-of-core determinism contract at
// the driver level: a build under a tight memory budget — every global sort
// external, every pass streamed through run files — must reproduce the
// unbudgeted build bit for bit (spanner edges and the full simulated cost
// profile) at every worker count.
func TestSpilledBuildBitIdentical(t *testing.T) {
	t.Parallel()
	graphs := map[string]*graph.Graph{
		"gnp":  graph.Connectify(graph.GNP(3000, 8/3000.0, graph.UniformWeight(1, 100), 11), 50),
		"grid": graph.Grid(40, 40, graph.UniformWeight(1, 9), 3),
	}
	const (
		k, tk  = 8, 3
		seed   = 42
		gamma  = 0.5
		budget = 64 << 10 // far below the ~670KB tuple footprint: forces spilling
	)
	for name, g := range graphs {
		ref, err := BuildSpannerCtx(context.Background(), g, k, tk, seed, Options{Gamma: gamma})
		if err != nil {
			t.Fatalf("%s resident build: %v", name, err)
		}
		if ref.SpilledBytes != 0 || ref.MemoryBudget != 0 {
			t.Fatalf("%s resident build reports spilling: %+v", name, ref)
		}
		for _, workers := range []int{1, 3, 0} {
			got, err := BuildSpannerCtx(context.Background(), g, k, tk, seed,
				Options{Gamma: gamma, Workers: workers, MemoryBudget: budget})
			if err != nil {
				t.Fatalf("%s spilled build (workers=%d): %v", name, workers, err)
			}
			if got.SpilledBytes == 0 || got.SpillRuns == 0 {
				t.Errorf("%s workers=%d: budget %d did not spill (%+v)",
					name, workers, budget, got)
			}
			if got.MemoryBudget != budget {
				t.Errorf("%s workers=%d: MemoryBudget = %d, want %d",
					name, workers, got.MemoryBudget, budget)
			}
			if !reflect.DeepEqual(got.EdgeIDs, ref.EdgeIDs) {
				t.Errorf("%s workers=%d: spilled spanner differs from resident (%d vs %d edges)",
					name, workers, len(got.EdgeIDs), len(ref.EdgeIDs))
			}
			if got.Rounds != ref.Rounds || got.Iterations != ref.Iterations ||
				got.Epochs != ref.Epochs || got.Sorts != ref.Sorts ||
				got.TreeOps != ref.TreeOps || got.TuplesMoved != ref.TuplesMoved ||
				got.PeakMachineLoad != ref.PeakMachineLoad ||
				got.PeakTotalTuples != ref.PeakTotalTuples {
				t.Errorf("%s workers=%d: cost profile diverged:\nspilled:  %+v\nresident: %+v",
					name, workers, got, ref)
			}
		}
	}
}

// TestQuarterBudgetMergesOncePerSort pins the merge's fan-in at the budget
// shape of the pipeline benchmark's spilled workload: with a quarter of the
// tuple footprint, every chunk run of a spilled sort fits one merge pass.
func TestQuarterBudgetMergesOncePerSort(t *testing.T) {
	t.Parallel()
	g := graph.Connectify(graph.GNP(4000, 16/4000.0, graph.UniformWeight(1, 100), 5), 50)
	budget := int64(2*g.M()*tupleCodec.Size) / 4
	res, err := BuildSpannerCtx(context.Background(), g, 12, 4, 7,
		Options{Gamma: 0.5, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	// Every grow iteration charges one sort the store does not perform
	// (the mirror routing sort, Sim.ChargeSort).
	performed := int64(res.Sorts - res.Iterations)
	if res.MergePasses == 0 || res.MergePasses > performed {
		t.Errorf("%d merge passes over %d performed sorts, want between 1 and one per sort",
			res.MergePasses, performed)
	}
}

// TestFilterKeepsRewrites pins the widened Filter contract on every store a
// Sim can run on: keep may rewrite the tuple it is handed, and survivors
// carry the rewrite, in their original order.
func TestFilterKeepsRewrites(t *testing.T) {
	type filterStore interface {
		LoadFrom(hint int, fill func(emit func(Tuple))) error
		Filter(keep func(*Tuple) bool) error
		Scan(fn func(*Tuple)) error
	}
	const n = 5000
	in := make([]Tuple, n)
	for i := range in {
		in[i] = Tuple{Src: int32(i % 97), Dst: int32(i % 89), W: float64(i % 13), Orig: int32(i)}
	}
	for _, workers := range []int{1, 3} {
		sim, err := NewSim(n, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetWorkers(workers)
		unbudgeted := extmem.NewStore(tupleCodec, extmem.Options{Workers: workers})
		spilled := extmem.NewStore(tupleCodec, extmem.Options{Budget: 1, Dir: t.TempDir(), Workers: workers})
		t.Cleanup(func() { unbudgeted.Close(); spilled.Close() })
		stores := []struct {
			name string
			st   filterStore
		}{{"resident Sim", sim}, {"unbudgeted extmem.Store", unbudgeted}, {"spilled extmem.Store", spilled}}
		for _, tc := range stores {
			name := fmt.Sprintf("%s/workers=%d", tc.name, workers)
			if err := tc.st.LoadFrom(n, func(emit func(Tuple)) {
				for _, tu := range in {
					emit(tu)
				}
			}); err != nil {
				t.Fatalf("%s: load: %v", name, err)
			}
			if err := tc.st.Filter(func(t *Tuple) bool {
				t.Src = -t.Src - 1
				return t.Orig%2 == 0
			}); err != nil {
				t.Fatalf("%s: filter: %v", name, err)
			}
			var got []Tuple
			if err := tc.st.Scan(func(t *Tuple) { got = append(got, *t) }); err != nil {
				t.Fatalf("%s: scan: %v", name, err)
			}
			if len(got) != n/2 {
				t.Fatalf("%s: %d survivors, want %d", name, len(got), n/2)
			}
			for i, tu := range got {
				want := in[2*i]
				want.Src = -want.Src - 1
				if tu != want {
					t.Fatalf("%s: survivor %d = %+v, want %+v", name, i, tu, want)
				}
			}
		}
		if !spilled.Spilled() {
			t.Fatalf("workers=%d: the spilled store holds %d records in memory", workers, spilled.Len())
		}
	}
}

// TestUnbudgetedBuildPublishesNoSpillSeries pins what an unbudgeted build
// shows an operator: no extmem_* series on its registry and zero spill
// fields in its result, while a budgeted build registers all five series.
func TestUnbudgetedBuildPublishesNoSpillSeries(t *testing.T) {
	t.Parallel()
	g := graph.Grid(40, 40, graph.UniformWeight(1, 9), 3)
	extmemSeries := func(reg *obs.Registry) []string {
		snap := reg.Snapshot()
		var names []string
		for _, c := range snap.Counters {
			names = append(names, c.Name)
		}
		for _, g := range snap.Gauges {
			names = append(names, g.Name)
		}
		for _, h := range snap.Histograms {
			names = append(names, h.Name)
		}
		var out []string
		for _, name := range names {
			if strings.HasPrefix(name, "extmem_") {
				out = append(out, name)
			}
		}
		sort.Strings(out)
		return out
	}

	reg := obs.NewRegistry()
	res, err := BuildSpannerCtx(context.Background(), g, 8, 3, 42, Options{Gamma: 0.5, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := extmemSeries(reg); len(got) != 0 {
		t.Errorf("unbudgeted build registered %v", got)
	}
	if res.MemoryBudget != 0 || res.SpilledBytes != 0 || res.SpillRuns != 0 || res.MergePasses != 0 {
		t.Errorf("unbudgeted build reports spilling: %+v", res)
	}

	reg = obs.NewRegistry()
	if _, err := BuildSpannerCtx(context.Background(), g, 8, 3, 42, Options{Gamma: 0.5, MemoryBudget: 64 << 10, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	want := []string{"extmem_budget_bytes", "extmem_merge_passes_total", "extmem_resident_peak_bytes",
		"extmem_runs_total", "extmem_spill_bytes_total"}
	if got := extmemSeries(reg); !reflect.DeepEqual(got, want) {
		t.Errorf("budgeted build registered %v, want %v", got, want)
	}
}
