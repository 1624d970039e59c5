package mpc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mpcspanner/internal/extmem"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/xrand"
)

// TestSimMetricsSeries checks that an instrumented Sim fills the paper-native
// cost series: one round-volume observation and one shuffle-byte observation
// per charged sort, and a peak-load gauge that tracks validate()'s maximum.
func TestSimMetricsSeries(t *testing.T) {
	rng := xrand.Split(31, 0x6d657472)
	ts := randomTuples(rng, 3000, 64, 96, false)
	s := loadSim(t, ts, 1)
	reg := obs.NewRegistry()
	s.SetMetrics(reg)

	key := func(tp *Tuple) uint64 { return uint64(tp.Src)<<32 | uint64(uint32(tp.Orig)) }
	for i := 0; i < 3; i++ {
		if err := s.SortByKey(key); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if v, _ := snap.Counter("mpc_sorts_total"); v != 3 {
		t.Fatalf("mpc_sorts_total = %d, want 3", v)
	}
	h := snap.Histogram("mpc_round_tuples")
	if h == nil || h.Count != 3 {
		t.Fatalf("mpc_round_tuples recorded %+v, want 3 observations", h)
	}
	if h.Sum != float64(3*s.Len()) {
		t.Fatalf("mpc_round_tuples sum = %g, want %d", h.Sum, 3*s.Len())
	}
	// Section 6's six-field record, whatever the host stores.
	hb := snap.Histogram("mpc_shuffle_bytes")
	if hb == nil || hb.Sum != float64(3*s.Len()*32) {
		t.Fatalf("mpc_shuffle_bytes = %+v, want sum %d (32 bytes a tuple)", hb, 3*s.Len()*32)
	}
	if v, _ := snap.Gauge("mpc_peak_machine_load_tuples"); v <= 0 || v > int64(s.s) {
		t.Fatalf("mpc_peak_machine_load_tuples = %d, want in (0, S=%d]", v, s.s)
	}
	if v, _ := snap.Gauge("mpc_peak_total_tuples"); v != int64(s.Len()) {
		t.Fatalf("mpc_peak_total_tuples = %d, want %d", v, s.Len())
	}
}

// TestSimInstrumentedSteadyStateAllocs extends the arena contract to the
// instrumented path: with a live registry attached, steady-state SortByKey
// still allocates nothing — counters, gauges, and histogram observations are
// all lock-free atomics on pre-registered handles.
func TestSimInstrumentedSteadyStateAllocs(t *testing.T) {
	rng := xrand.Split(29, 0x616c6c6f)
	ts := randomTuples(rng, 5000, 64, 128, false)
	s := loadSim(t, ts, 1)
	s.SetMetrics(obs.NewRegistry())
	key := func(tp *Tuple) uint64 { return uint64(tp.Src)<<32 | uint64(uint32(tp.Orig)) }
	if err := s.SortByKey(key); err != nil { // size the arena
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if err := s.SortByKey(key); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("instrumented steady-state SortByKey allocated %.0f objects/op, want 0", allocs)
	}
}

// TestChargeSortBillsLikeSortByKey pins ChargeSort to SortByKey's bill —
// rounds, sorts, tuples moved, the placement high-water marks and every
// mpc_* series, mpc_round_tuples and mpc_shuffle_bytes included — on a
// resident and on a spilled store, and checks that it leaves the stored
// tuples, their order and the store's spill counters as they were.
func TestChargeSortBillsLikeSortByKey(t *testing.T) {
	ts := randomTuples(xrand.Split(37, 0x63686172), 4000, 4000, 8000, false)
	key := func(tp *Tuple) uint64 { return uint64(tp.Dst)<<32 | uint64(uint32(tp.Src)) }
	for _, budget := range []int64{0, 16 << 10} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			// bill loads ts into a fresh instrumented Sim, charges two sorts
			// with charge, and returns the Sim, its mpc_* series, and its
			// spill counters from before the charges.
			bill := func(charge func(*Sim) error) (*Sim, obs.Snapshot, extmem.Stats) {
				s, err := NewSimBudget(len(ts), len(ts), 0.5, budget)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { s.Close() })
				reg := obs.NewRegistry()
				s.SetMetrics(reg)
				if err := s.Load(ts); err != nil {
					t.Fatal(err)
				}
				loaded := s.SpillStats()
				for i := 0; i < 2; i++ {
					if err := charge(s); err != nil {
						t.Fatal(err)
					}
				}
				return s, mpcSeries(reg.Snapshot()), loaded
			}
			sorted, sortedSeries, _ := bill(func(s *Sim) error { return s.SortByKey(key) })
			charged, chargedSeries, loaded := bill((*Sim).ChargeSort)

			if sorted.SortRounds() == 0 {
				t.Fatal("a one-machine cluster charges no sort rounds; the test needs P > 1")
			}
			if h := sortedSeries.Histogram("mpc_round_tuples"); h == nil || h.Count != 2 {
				t.Fatalf("SortByKey recorded mpc_round_tuples %+v, want 2 observations", h)
			}
			if got, want := billOf(charged), billOf(sorted); got != want {
				t.Errorf("ChargeSort billed %+v, SortByKey %+v", got, want)
			}
			if !reflect.DeepEqual(chargedSeries, sortedSeries) {
				t.Errorf("mpc_* series differ:\nChargeSort: %+v\nSortByKey:  %+v", chargedSeries, sortedSeries)
			}
			if got := snapshot(t, charged); !reflect.DeepEqual(got, ts) {
				t.Error("ChargeSort changed the stored tuples or their order")
			}
			if got := charged.SpillStats(); got != loaded {
				t.Errorf("ChargeSort moved the spill counters: %+v after load, %+v after the charges", loaded, got)
			}
			if budget > 0 && (loaded.SpilledBytes == 0 || sorted.SpillStats().MergePasses == 0) {
				t.Fatalf("budget %d kept the store resident (%+v)", budget, sorted.SpillStats())
			}
		})
	}
}

// simBill is the cost profile a Sim charges.
type simBill struct {
	rounds, sorts, treeOps int
	moved                  int64
	peakLoad, peakTotal    int
}

func billOf(s *Sim) simBill {
	return simBill{s.Rounds(), s.Sorts(), s.TreeOps(), s.TuplesMoved(), s.PeakMachineLoad(), s.PeakTotalTuples()}
}

// mpcSeries keeps a snapshot's mpc_* series, dropping a budgeted store's
// extmem_* ones.
func mpcSeries(s obs.Snapshot) obs.Snapshot {
	var out obs.Snapshot
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, "mpc_") {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if strings.HasPrefix(g.Name, "mpc_") {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, "mpc_") {
			out.Histograms = append(out.Histograms, h)
		}
	}
	return out
}
