// Package mpc simulates the Massively Parallel Computation model of
// [KSV10, GSZ11, BKS13] at the data-placement level and executes the paper's
// general spanner algorithm on it (Section 6's implementation).
//
// The simulator models P machines, each with a local memory of S = ⌈n^γ⌉
// tuples, holding the edge tuples of the current quotient graph. Primitives
// charge the rounds the paper's subroutines cost:
//
//   - Sort ([GSZ11] sample sort): 2·tree + 1 rounds, where tree =
//     ⌈log_S P⌉ is the depth of an aggregation tree with fan-in S —
//     O(1/γ) rounds total, as in Section 6. SortByKey performs the sort
//     and charges it; ChargeSort charges a sort whose routing the host
//     delivers another way, without permuting the tuples;
//   - segmented aggregates (Find Minimum(v)) and Broadcast(b, v): tree
//     rounds each, via the same implicit aggregation trees;
//   - purely local passes (filters that may rewrite what they keep): 0 rounds.
//
// Placement fidelity: after every communication primitive the simulator
// re-validates that no machine holds more than S tuples and that total
// memory never exceeded its initial O(m) footprint. Message contents are not
// materialized bit-by-bit: the host's Tuple even omits the cluster labels of
// Section 6's six-field record. What the paper's claims quantify — rounds,
// memory per machine, total memory — is tracked exactly.
//
// Out-of-core execution: the tuples live in one internal/extmem store.
// NewSim never spills it; NewSimBudget caps the process-level tuple memory
// at a byte budget and spills to extmem run files past it, with every
// primitive — including the global sorts, which become external merge
// sorts — producing bit-identical tuple orders to an unbudgeted simulator
// at every worker count.
package mpc

import (
	"fmt"
	"math"

	"mpcspanner/internal/extmem"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/par"
)

// Tuple is the host's record of one directed copy of a quotient-graph edge.
// Section 6's record also carries both endpoints' cluster labels; the host
// keeps those once, in the driver's label-indexed cluster array. Labels are
// the original-vertex id of the cluster/supernode center, which is globally
// unique and stable across contractions.
type Tuple struct {
	Src, Dst int32 // supernode labels (center original-vertex ids)
	W        float64
	Orig     int32 // original edge identifier
}

// Sim is the machine cluster. Its tuples are one logical sequence in an
// extmem.Store, where machine i owns the i-th contiguous block of at most S
// tuples (the canonical balanced placement that every [GSZ11] sort
// re-establishes). Unbudgeted, the sequence is one resident slice; under a
// byte budget, part of it may live in extmem run files.
type Sim struct {
	s int // memory per machine, in tuples
	p int // number of machines

	// workers is the real goroutine pool backing the simulated machines'
	// local passes (par conventions, resolved; default 1). It changes only
	// wall-clock time: rounds, memory accounting and tuple contents are
	// bit-identical at every worker count.
	workers int

	// budget, when positive, is the process-level byte cap on tuple storage.
	// The store is created at the first load (after SetWorkers/SetMetrics,
	// whose settings it inherits) and is nil until then.
	budget int64
	reg    *obs.Registry // registry for a budgeted store's extmem_* series
	st     *extmem.Store[Tuple]

	rounds     int
	sorts      int
	treeOps    int
	peakLoad   int
	peakTotal  int
	totalMoved int64

	// met mirrors the cost counters above into an obs registry when one is
	// attached with SetMetrics. The zero value holds nil handles, whose
	// mutations are no-ops, so the uninstrumented simulator pays one
	// predictable nil-check per charge and allocates nothing either way.
	met simMetrics
}

// simMetrics are the exposition handles for the paper's cost model: rounds,
// sorts, tree ops and communication volume as counters; per-machine and
// total memory high-water marks as gauges; per-round shuffle volume (in
// tuples and bytes) as histograms, so the distribution over a build's rounds
// is visible — the paper's O(m) total memory claim is about exactly these.
type simMetrics struct {
	roundTuples  *obs.Histogram // mpc_round_tuples: tuples shipped per sort round
	shuffleBytes *obs.Histogram // mpc_shuffle_bytes: same, in bytes
	peakLoad     *obs.Gauge     // mpc_peak_machine_load_tuples
	peakTotal    *obs.Gauge     // mpc_peak_total_tuples
	rounds       *obs.Counter   // mpc_rounds_total
	sorts        *obs.Counter   // mpc_sorts_total
	treeOps      *obs.Counter   // mpc_tree_ops_total
	moved        *obs.Counter   // mpc_tuples_moved_total
}

// tupleBytes is the wire size a shipped tuple is accounted at: Section 6's
// record of four int32 labels, a float64 weight and an int32 edge id,
// 8-byte aligned, whatever the host's Tuple takes.
const tupleBytes = 32

// SetMetrics attaches the simulator's cost counters to r (get-or-create, so
// multiple Sims sharing a registry aggregate, Prometheus-style). A nil
// registry detaches: all handles revert to inert nil pointers. Call before
// the first Load for a budgeted store's extmem_* series to attach too.
func (m *Sim) SetMetrics(r *obs.Registry) {
	m.reg = r
	if r == nil {
		m.met = simMetrics{}
		return
	}
	m.met = simMetrics{
		roundTuples:  r.Histogram("mpc_round_tuples", obs.SizeBuckets),
		shuffleBytes: r.Histogram("mpc_shuffle_bytes", obs.SizeBuckets),
		peakLoad:     r.Gauge("mpc_peak_machine_load_tuples"),
		peakTotal:    r.Gauge("mpc_peak_total_tuples"),
		rounds:       r.Counter("mpc_rounds_total"),
		sorts:        r.Counter("mpc_sorts_total"),
		treeOps:      r.Counter("mpc_tree_ops_total"),
		moved:        r.Counter("mpc_tuples_moved_total"),
	}
}

// NewSim sizes a cluster for an n-vertex input of totalTuples tuples with
// memory exponent gamma ∈ (0, 1]: S = ⌈n^γ⌉, P = ⌈totalTuples/S⌉. The
// tuples stay resident (no byte budget).
func NewSim(n, totalTuples int, gamma float64) (*Sim, error) {
	return NewSimBudget(n, totalTuples, gamma, 0)
}

// NewSimBudget is NewSim with a process-level byte budget on tuple storage.
// budget <= 0 means unbudgeted: the store never spills and registers no
// extmem_* series. Under a positive budget, contents past it live in
// CRC-checked run files, global sorts become external merge sorts, and
// every primitive's output order is bit-identical to an unbudgeted
// simulator's. The simulated cost model (rounds, S, P) is unchanged — the
// budget constrains the host process, not the simulated machines.
func NewSimBudget(n, totalTuples int, gamma float64, budget int64) (*Sim, error) {
	if gamma <= 0 || gamma > 1 {
		return nil, fmt.Errorf("mpc: gamma must lie in (0,1], got %v", gamma)
	}
	if n < 0 || totalTuples < 0 {
		return nil, fmt.Errorf("mpc: negative sizing (n=%d, tuples=%d)", n, totalTuples)
	}
	s := int(math.Ceil(math.Pow(float64(n), gamma)))
	if s < 2 {
		s = 2
	}
	p := (totalTuples + s - 1) / s
	if p < 1 {
		p = 1
	}
	return &Sim{s: s, p: p, workers: 1, budget: budget}, nil
}

// SetWorkers sizes the goroutine pool that executes the simulated machines'
// local passes (0 selects GOMAXPROCS, 1 forces serial execution). The
// simulated cost model is unaffected. Call before the first Load: the
// store pins its pool size when the first Load creates it.
func (m *Sim) SetWorkers(w int) { m.workers = par.Workers(w) }

// Workers returns the resolved pool size.
func (m *Sim) Workers() int { return m.workers }

// MemoryPerMachine returns S in tuples.
func (m *Sim) MemoryPerMachine() int { return m.s }

// Machines returns P.
func (m *Sim) Machines() int { return m.p }

// Rounds returns the communication rounds charged so far.
func (m *Sim) Rounds() int { return m.rounds }

// Sorts returns how many global sorts were charged (SortByKey and
// ChargeSort).
func (m *Sim) Sorts() int { return m.sorts }

// TreeOps returns how many aggregation-tree operations were charged.
func (m *Sim) TreeOps() int { return m.treeOps }

// PeakMachineLoad returns the maximum tuples any machine held at a
// validation point.
func (m *Sim) PeakMachineLoad() int { return m.peakLoad }

// PeakTotalTuples returns the maximum total tuples resident at once.
func (m *Sim) PeakTotalTuples() int { return m.peakTotal }

// TuplesMoved returns the cumulative tuples shipped by communication
// primitives (a proxy for total communication volume).
func (m *Sim) TuplesMoved() int64 { return m.totalMoved }

// Len returns the number of stored tuples.
func (m *Sim) Len() int {
	if m.st == nil {
		return 0
	}
	return m.st.Len()
}

// SpillStats returns the store's cumulative spill counters (zero spill
// fields when the simulator is unbudgeted or nothing has loaded yet).
func (m *Sim) SpillStats() extmem.Stats {
	if m.st == nil {
		return extmem.Stats{}
	}
	return m.st.Stats()
}

// Close releases the store, deleting its run directory if it ever spilled.
// The simulator must not be used afterwards.
func (m *Sim) Close() error {
	if m.st == nil {
		return nil
	}
	return m.st.Close()
}

// TreeRounds returns the depth of an aggregation tree with fan-in S over the
// P machines — the cost of Find Minimum / Broadcast in Section 6.
func (m *Sim) TreeRounds() int {
	if m.p <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(float64(m.p)) / math.Log(float64(m.s))))
}

// SortRounds returns the cost of one [GSZ11] sample sort: splitter
// aggregation up a tree, splitter broadcast down, and one all-to-all routing
// round.
func (m *Sim) SortRounds() int {
	if m.p <= 1 {
		return 0
	}
	return 2*m.TreeRounds() + 1
}

// Load places the input tuples on the cluster (the "arbitrarily distributed
// input" of the model; charges no rounds) and validates capacity.
func (m *Sim) Load(ts []Tuple) error {
	return m.LoadFrom(len(ts), func(emit func(Tuple)) {
		for _, t := range ts {
			emit(t)
		}
	})
}

// LoadFrom is Load for inputs too large to materialize: fill streams the
// tuples through emit (in placement order, on the calling goroutine) and the
// store sinks them — spilling incrementally on budgeted simulators, so the
// resident footprint never exceeds the budget even during load. total is a
// capacity hint for the resident buffer. The first load creates the store
// with the simulator's budget, pool size and, when budgeted, metrics.
func (m *Sim) LoadFrom(total int, fill func(emit func(Tuple))) error {
	if m.st == nil {
		var met *extmem.Metrics
		if m.budget > 0 {
			met = extmem.NewMetrics(m.reg)
		}
		m.st = extmem.NewStore(tupleCodec, extmem.Options{Budget: m.budget, Workers: m.workers, Metrics: met})
	}
	if err := m.st.LoadFrom(total, fill); err != nil {
		return err
	}
	return m.validate("load")
}

// validate re-checks the placement invariants after a primitive.
func (m *Sim) validate(op string) error {
	n := m.st.Len()
	if n > m.peakTotal {
		m.peakTotal = n
	}
	load := 0
	if n > 0 {
		load = (n + m.p - 1) / m.p
	}
	if load > m.peakLoad {
		m.peakLoad = load
	}
	m.met.peakLoad.SetMax(int64(load))
	m.met.peakTotal.SetMax(int64(n))
	if load > m.s {
		return fmt.Errorf("mpc: %s overflows local memory: %d tuples/machine > S=%d (P=%d, total=%d)",
			op, load, m.s, m.p, n)
	}
	return nil
}

// SortByKey globally sorts the stored tuples by ascending key(t), equal
// keys keeping their placement order, and charges one sort (ChargeSort).
// The canonical balanced placement is re-established, so per-machine load
// is ⌈total/P⌉ afterwards.
//
// The model cost is the SortRounds charge of the [GSZ11] sample sort, which
// is oblivious to how the in-process realization compares records. That
// realization is the par.RadixSorter LSD radix sort over the store's
// retained key/index/tuple buffers, so steady-state calls allocate nothing;
// on a spilled store it continues across run files as an external merge
// sort. Stability makes the result identical at every worker count and
// budget. key must be a pure per-tuple function: it is invoked concurrently
// from the worker pool.
func (m *Sim) SortByKey(key func(t *Tuple) uint64) error {
	if err := m.st.SortKey(key); err != nil {
		return err
	}
	return m.ChargeSort()
}

// ChargeSort bills one [GSZ11] sample sort of the stored tuples — SortRounds,
// one sort, every tuple moved, the mpc_* series and the placement check —
// without touching the store. It is for a sort the model needs but the host
// does not: the routing it performs is delivered through host-side arrays,
// and no later pass reads the order it would leave.
func (m *Sim) ChargeSort() error {
	n := m.st.Len()
	m.rounds += m.SortRounds()
	m.sorts++
	m.totalMoved += int64(n)
	m.met.rounds.Add(int64(m.SortRounds()))
	m.met.sorts.Inc()
	m.met.moved.Add(int64(n))
	m.met.roundTuples.Observe(float64(n))
	m.met.shuffleBytes.Observe(float64(int64(n) * tupleBytes))
	return m.validate("sort")
}

// Scan runs a read-only pass over the tuples in placement order, on the
// calling goroutine (callers carry cross-tuple state through it). Local: no
// rounds. Cross-machine aggregation performed on top of a Scan must be
// charged separately with ChargeTree; for the parallel segmented form see
// ForEachSegment. The error is always nil while nothing is spilled; a
// spilled store surfaces run-file I/O errors.
func (m *Sim) Scan(f func(t *Tuple)) error { return m.st.Scan(f) }

// Filter is the one local rewrite pass (no rounds — machines simply
// release memory): it drops the tuples keep rejects, and a kept tuple keeps
// any rewrite keep made to it, so a relabeling is a Filter that keeps every
// tuple. keep runs on the worker pool and must depend only on the tuple it
// is handed; the surviving tuples retain their order, so the result is
// identical at every worker count.
func (m *Sim) Filter(keep func(t *Tuple) bool) error { return m.st.Filter(keep) }

// ForEachSegment decomposes the stored tuples into maximal runs of
// consecutive tuples for which sameKey holds between neighbors — the segment
// decomposition that Section 6's "group by supernode, aggregate per group"
// subroutines operate on — and fans fn out over them on the worker pool.
// Shard ids are always < Workers(), so fn may keep per-shard accumulators.
// While nothing is spilled, segments shard contiguously and per-shard
// outputs concatenated in shard order equal segment order, as with
// par.ForShard; a spilled store walks its segments in batches, so the
// merged accumulation must not depend on that order. The seg slice is only
// valid for the duration of fn.
func (m *Sim) ForEachSegment(sameKey func(a, b *Tuple) bool, fn func(shard int, seg []Tuple)) error {
	return m.st.Segments(sameKey, fn)
}

// FilterSegments is ForEachSegment fused with a segmented Filter: decide
// fills keep (pre-zeroed, len(seg)) for each segment and the store retains
// exactly the tuples marked true, preserving order. Local: charges no
// rounds; segmented aggregates computed inside decide are charged separately
// with ChargeTree.
func (m *Sim) FilterSegments(sameKey func(a, b *Tuple) bool, decide func(seg []Tuple, keep []bool)) error {
	return m.st.FilterSegments(sameKey, decide)
}

// ChargeTree charges `times` aggregation-tree operations (segmented minima,
// per-group decision gathering, label broadcasts along sorted groups).
func (m *Sim) ChargeTree(times int) {
	m.rounds += times * m.TreeRounds()
	m.treeOps += times
	m.met.rounds.Add(int64(times * m.TreeRounds()))
	m.met.treeOps.Add(int64(times))
}
