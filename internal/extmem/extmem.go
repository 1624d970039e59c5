// Package extmem is a spillable fixed-record tuple store: the one tuple
// store of the MPC simulator, which makes the model's per-machine memory
// S = n^γ a real byte budget instead of an accounting fiction. A store
// holds an ordered sequence of records. With no budget, or under it,
// everything is resident and every operation runs in memory on scratch the
// store retains, so steady-state key sorts, filters and segment walks
// allocate nothing; past it, contents live in CRC-32C-checksummed run files
// (run.go) and the streaming forms of each operation take over — chunked
// stable key sorts plus k-way external merges for SortKey, frame-at-a-time
// rewrites for Filter, carry-buffered batching for segment walks.
//
// The determinism contract every layer above relies on: a stable sort has
// exactly one output permutation, so sorting chunks stably (with the same
// radix sort the resident path uses) and merging them with a stable,
// lower-run-first merge reproduces the resident order bit for bit, at every
// worker count and every budget.
package extmem

import (
	"math"
	"os"

	"mpcspanner/internal/obs"
	"mpcspanner/internal/par"
)

// Codec fixes the on-disk encoding of one record: Size bytes, written by
// Encode and inverted by Decode. The encoding must be a pure function of
// the record so spilled bytes round-trip exactly.
type Codec[T any] struct {
	Size   int
	Encode func(dst []byte, t *T)
	Decode func(src []byte, t *T)
}

// Options configures a Store.
type Options struct {
	// Budget is the byte budget for resident record state. <= 0 means
	// unlimited: the store never spills. The budget covers the store's own
	// buffers (resident records, sort scratch, merge frames); pathological
	// inputs — a single segment larger than the budget — grow past it
	// rather than fail, since correctness outranks the cap.
	Budget int64

	// Dir is where run files live; "" uses the system temp directory. A
	// private subdirectory is always created (and removed on Close).
	Dir string

	// Workers bounds parallelism inside sorts and segment fan-outs,
	// resolved through par.Workers (0 = GOMAXPROCS).
	Workers int

	// Metrics receives the extmem_* series; nil disables instrumentation.
	Metrics *Metrics
}

// Metrics are the store's obs series. Construct with NewMetrics; a nil
// *Metrics (or nil fields) is silently inert.
type Metrics struct {
	SpillBytes   *obs.Counter // extmem_spill_bytes_total
	Runs         *obs.Counter // extmem_runs_total
	MergePasses  *obs.Counter // extmem_merge_passes_total
	ResidentPeak *obs.Gauge   // extmem_resident_peak_bytes
	Budget       *obs.Gauge   // extmem_budget_bytes
}

// NewMetrics registers the extmem series on r (nil r gives nil metrics).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		SpillBytes:   r.Counter("extmem_spill_bytes_total"),
		Runs:         r.Counter("extmem_runs_total"),
		MergePasses:  r.Counter("extmem_merge_passes_total"),
		ResidentPeak: r.Gauge("extmem_resident_peak_bytes"),
		Budget:       r.Gauge("extmem_budget_bytes"),
	}
}

// Stats is a point-in-time snapshot of a store's spill accounting.
type Stats struct {
	BudgetBytes       int64 // configured budget (0 = unlimited)
	SpilledBytes      int64 // total payload bytes written to run files
	RunFiles          int64 // total run files written
	MergePasses       int64 // external merge levels executed
	ResidentPeakBytes int64 // high-water of in-memory record bytes
}

const (
	minChunkRecs = 1 << 10
	minFrameRecs = 1 << 7
)

// Store is an ordered sequence of fixed-size records that spills to disk
// past its byte budget. It is not safe for concurrent use; the parallelism
// lives inside each operation.
type Store[T any] struct {
	codec   Codec[T]
	workers int
	budget  int64
	baseDir string
	met     *Metrics

	// chunkRecs is both the resident capacity and the unit of external
	// sorting: the largest record count whose chunk + sort scratch fits the
	// budget. frameRecs is the streaming I/O slab, in records, and the
	// largest merge frame.
	chunkRecs int
	frameRecs int

	// mem holds the resident contents when runs is nil. While spilled it is
	// empty, and its capacity is the external sort's chunk buffer.
	mem  []T
	runs []*runFile // spilled contents otherwise; concatenation in order
	n    int        // logical record count, both modes

	dir    string // private run directory, created on first spill
	seq    int
	keep   []bool // scratch mask for filters
	starts []int  // scratch segment boundaries

	// Sort scratch, retained across sorts: the chunk sorts' keys, index and
	// permutation buffer, reused as the merge frames' cached keys and
	// decoded records, and the run readers' and writers' byte slabs.
	sortKeys []uint64
	sortIdx  []uint32
	sortBuf  []T
	sortSlab []byte
	sorter   par.RadixSorter

	stats Stats
}

// NewStore builds a store for codec under opt. Codec misuse is a
// programmer error and panics.
func NewStore[T any](codec Codec[T], opt Options) *Store[T] {
	if codec.Size <= 0 || codec.Encode == nil || codec.Decode == nil {
		panic("extmem: incomplete codec")
	}
	s := &Store[T]{
		codec:   codec,
		workers: par.Workers(opt.Workers),
		budget:  opt.Budget,
		baseDir: opt.Dir,
		met:     opt.Metrics,
	}
	if opt.Budget > 0 {
		// A sort chunk costs chunk + merge scratch (2 records each) plus
		// radix keys+index (12 bytes). Merge frames are sized per pass
		// (mergeShape) to fit the same budget.
		c := int(opt.Budget) / (2*codec.Size + 16)
		if c < minChunkRecs {
			c = minChunkRecs
		}
		s.chunkRecs = c
		s.frameRecs = c / 8
		if s.frameRecs < minFrameRecs {
			s.frameRecs = minFrameRecs
		}
		s.stats.BudgetBytes = opt.Budget
		if s.met != nil && s.met.Budget != nil {
			s.met.Budget.Set(opt.Budget)
		}
	} else {
		s.chunkRecs = math.MaxInt
		s.frameRecs = 1 << 13
	}
	return s
}

// Len returns the logical record count.
func (s *Store[T]) Len() int { return s.n }

// Spilled reports whether the contents currently live in run files.
func (s *Store[T]) Spilled() bool { return len(s.runs) > 0 }

// Stats snapshots the spill accounting.
func (s *Store[T]) Stats() Stats { return s.stats }

// Close deletes the store's run directory. Idempotent; the store is empty
// afterwards.
func (s *Store[T]) Close() error {
	s.mem, s.runs, s.n = nil, nil, 0
	if s.dir != "" {
		dir := s.dir
		s.dir = ""
		return os.RemoveAll(dir)
	}
	return nil
}

func (s *Store[T]) ensureDir() error {
	if s.dir != "" {
		return nil
	}
	dir, err := os.MkdirTemp(s.baseDir, "extmem-*")
	if err != nil {
		return err
	}
	s.dir = dir
	return nil
}

func (s *Store[T]) noteSpill(bytes int64) {
	s.stats.SpilledBytes += bytes
	s.stats.RunFiles++
	if s.met != nil {
		if s.met.SpillBytes != nil {
			s.met.SpillBytes.Add(bytes)
		}
		if s.met.Runs != nil {
			s.met.Runs.Inc()
		}
	}
}

func (s *Store[T]) noteMergePass() {
	s.stats.MergePasses++
	if s.met != nil && s.met.MergePasses != nil {
		s.met.MergePasses.Inc()
	}
}

// recBytes is the in-memory size of n records, as the budget counts them.
func (s *Store[T]) recBytes(n int) int64 { return int64(n) * int64(s.codec.Size) }

// noteResident records b bytes of buffers in use toward the resident peak.
func (s *Store[T]) noteResident(b int64) {
	if b > s.stats.ResidentPeakBytes {
		s.stats.ResidentPeakBytes = b
	}
	if s.met != nil && s.met.ResidentPeak != nil {
		s.met.ResidentPeak.SetMax(b)
	}
}

// LoadFrom replaces the contents with the records fill emits, in emission
// order. hint sizes the resident buffer; emitting more than the budget
// allows switches to spilling mid-load, so the caller can stream a
// collection it could never hold in memory.
func (s *Store[T]) LoadFrom(hint int, fill func(emit func(T))) error {
	if err := s.reset(); err != nil {
		return err
	}
	capHint := hint
	if capHint > s.chunkRecs {
		capHint = s.chunkRecs
	}
	if cap(s.mem) < capHint {
		s.mem = make([]T, 0, capHint)
	}
	var failed error
	emit := func(t T) {
		if failed != nil {
			return
		}
		if len(s.mem) == s.chunkRecs {
			if err := s.flushMem(); err != nil {
				failed = err
				return
			}
		}
		s.mem = append(s.mem, t)
		s.n++
	}
	fill(emit)
	if failed != nil {
		return failed
	}
	s.noteResident(s.recBytes(len(s.mem)))
	if len(s.runs) > 0 && len(s.mem) > 0 {
		return s.flushMem()
	}
	return nil
}

// flushMem writes the resident buffer out as one run and empties it.
func (s *Store[T]) flushMem() error {
	w, err := s.newRunWriter(s.growSlab(s.frameRecs * s.codec.Size))
	if err != nil {
		return err
	}
	if err := w.add(s.mem); err != nil {
		w.abort()
		return err
	}
	rf, err := w.finish()
	if err != nil {
		return err
	}
	s.noteResident(s.recBytes(len(s.mem)))
	s.runs = append(s.runs, rf)
	s.mem = s.mem[:0]
	return nil
}

// Scan calls fn once per record, in order. Mutations through the pointer
// are not persisted on the spilled path; use Filter for that.
func (s *Store[T]) Scan(fn func(*T)) error {
	if len(s.runs) == 0 {
		for i := range s.mem {
			fn(&s.mem[i])
		}
		return nil
	}
	frame := make([]T, s.frameRecs)
	return s.streamRuns(frame, func(batch []T) error {
		for i := range batch {
			fn(&batch[i])
		}
		return nil
	})
}

// Filter keeps exactly the records keep reports true for, preserving
// order. keep may rewrite the record it is handed, and a kept record keeps
// the rewrite, so Filter is also the store's rewrite pass. keep must
// depend only on its record and be safe to call concurrently. A spilled
// pass commits its new runs before it removes the old ones, so a failed
// pass leaves the contents as they were.
func (s *Store[T]) Filter(keep func(*T) bool) error {
	if len(s.runs) == 0 {
		s.mem = s.filterBatch(s.mem, keep)
		s.n = len(s.mem)
		return nil
	}
	frame := make([]T, s.frameRecs)
	out := s.newRollingWriter()
	total := 0
	err := s.streamRuns(frame, func(batch []T) error {
		kept := s.filterBatch(batch, keep)
		total += len(kept)
		return out.add(kept)
	})
	if err != nil {
		out.abort()
		return err
	}
	return s.adoptRuns(out, total)
}

// filterBatch compacts batch in place to the records keep accepts. A
// single worker runs the loop inline: a closure handed to par.For escapes
// to the heap on every call.
func (s *Store[T]) filterBatch(batch []T, keep func(*T) bool) []T {
	mask := s.mask(len(batch))
	if s.workers <= 1 {
		for i := range batch {
			mask[i] = keep(&batch[i])
		}
	} else {
		par.For(s.workers, len(batch), func(i int) { mask[i] = keep(&batch[i]) })
	}
	return compact(batch, mask)
}

// Segments walks maximal runs of adjacent records for which same holds,
// invoking fn concurrently across segments. shard identifies the calling
// worker (always < max(1, Workers)) so fn can use per-shard accumulators;
// segment-to-shard assignment is not deterministic across budgets, so the
// accumulation must be order-independent. Typically preceded by a sort
// that makes segments meaningful.
func (s *Store[T]) Segments(same func(a, b *T) bool, fn func(shard int, seg []T)) error {
	if len(s.runs) == 0 {
		s.batchSegments(s.mem, same, fn)
		return nil
	}
	return s.carryBatches(same, func(batch []T) error {
		s.batchSegments(batch, same, fn)
		return nil
	})
}

// FilterSegments walks segments like Segments and lets decide mark which
// records of each survive: decide fills keep (len(seg), pre-false) and the
// store compacts accordingly, preserving order. decide must be pure per
// segment and safe to call concurrently.
func (s *Store[T]) FilterSegments(same func(a, b *T) bool, decide func(seg []T, keep []bool)) error {
	if len(s.runs) == 0 {
		mask := s.mask(len(s.mem))
		s.batchDecide(s.mem, mask, same, decide)
		s.mem = compact(s.mem, mask)
		s.n = len(s.mem)
		return nil
	}
	out := s.newRollingWriter()
	total := 0
	err := s.carryBatches(same, func(batch []T) error {
		mask := s.mask(len(batch))
		s.batchDecide(batch, mask, same, decide)
		kept := compact(batch, mask)
		total += len(kept)
		return out.add(kept)
	})
	if err != nil {
		out.abort()
		return err
	}
	return s.adoptRuns(out, total)
}

// batchSegments fans the segments of one in-memory batch out across
// workers, inline for a single worker (no escaping closure).
func (s *Store[T]) batchSegments(batch []T, same func(a, b *T) bool, fn func(shard int, seg []T)) {
	starts := s.boundaries(batch, same)
	if s.workers <= 1 {
		for si := 1; si < len(starts); si++ {
			fn(0, batch[starts[si-1]:starts[si]])
		}
		return
	}
	par.ForShard(s.workers, len(starts)-1, func(shard, lo, hi int) {
		for si := lo; si < hi; si++ {
			fn(shard, batch[starts[si]:starts[si+1]])
		}
	})
}

// batchDecide runs decide over every segment of batch, filling mask.
func (s *Store[T]) batchDecide(batch []T, mask []bool, same func(a, b *T) bool, decide func(seg []T, keep []bool)) {
	starts := s.boundaries(batch, same)
	if s.workers <= 1 {
		for si := 1; si < len(starts); si++ {
			decide(batch[starts[si-1]:starts[si]], mask[starts[si-1]:starts[si]])
		}
		return
	}
	par.ForShard(s.workers, len(starts)-1, func(_, lo, hi int) {
		for si := lo; si < hi; si++ {
			decide(batch[starts[si]:starts[si+1]], mask[starts[si]:starts[si+1]])
		}
	})
}

// boundaries returns segment start offsets for batch under same, with a
// trailing len(batch) sentinel (just [0] for an empty batch). The slice is
// the store's scratch, valid until the next call.
func (s *Store[T]) boundaries(batch []T, same func(a, b *T) bool) []int {
	starts := append(s.starts[:0], 0)
	for i := 1; i < len(batch); i++ {
		if !same(&batch[i-1], &batch[i]) {
			starts = append(starts, i)
		}
	}
	if len(batch) > 0 {
		starts = append(starts, len(batch))
	}
	s.starts = starts
	return starts
}

// carryBatches streams the spilled contents through process in batches
// that never split a segment: records accumulate in a carry buffer until
// it holds at least a chunk, everything up to the last segment boundary is
// processed, and the unfinished tail carries into the next batch. A single
// segment larger than a chunk grows the carry past the budget — the
// documented pathological case.
func (s *Store[T]) carryBatches(same func(a, b *T) bool, process func(batch []T) error) error {
	frame := make([]T, s.frameRecs)
	carry := make([]T, 0, s.chunkRecs+s.frameRecs)
	err := s.streamRuns(frame, func(batch []T) error {
		carry = append(carry, batch...)
		if len(carry) < s.chunkRecs {
			return nil
		}
		cut := len(carry) - 1
		for cut > 0 && same(&carry[cut-1], &carry[cut]) {
			cut--
		}
		if cut == 0 {
			return nil // one giant segment so far; keep growing
		}
		s.noteResident(s.recBytes(len(carry)))
		if err := process(carry[:cut]); err != nil {
			return err
		}
		carry = append(carry[:0], carry[cut:]...)
		return nil
	})
	if err != nil {
		return err
	}
	s.noteResident(s.recBytes(len(carry)))
	return process(carry)
}

// streamRuns reads every run in order, passing decoded frames to process.
func (s *Store[T]) streamRuns(frame []T, process func(batch []T) error) error {
	return s.eachRun(make([]byte, len(frame)*s.codec.Size), func(r *runReader[T]) error {
		for {
			n, err := r.fill(frame)
			if err != nil || n == 0 {
				return err
			}
			if err := process(frame[:n]); err != nil {
				return err
			}
		}
	})
}

// eachRun opens every run in order, reading through slab, and hands its
// reader to read.
func (s *Store[T]) eachRun(slab []byte, read func(r *runReader[T]) error) error {
	for _, rf := range s.runs {
		r, err := s.openRun(rf, slab)
		if err != nil {
			return err
		}
		err = read(r)
		r.close()
		if err != nil {
			return err
		}
	}
	return nil
}

// rollingWriter accumulates records into run files cut at chunkRecs, the
// shape Filter and FilterSegments rebuild the store in.
type rollingWriter[T any] struct {
	s    *Store[T]
	slab []byte
	cur  *runWriter[T]
	runs []*runFile
}

func (s *Store[T]) newRollingWriter() *rollingWriter[T] {
	return &rollingWriter[T]{s: s, slab: make([]byte, s.frameRecs*s.codec.Size)}
}

func (rw *rollingWriter[T]) add(recs []T) error {
	for len(recs) > 0 {
		if rw.cur == nil {
			w, err := rw.s.newRunWriter(rw.slab)
			if err != nil {
				return err
			}
			rw.cur = w
		}
		room := rw.s.chunkRecs - rw.cur.count
		take := len(recs)
		if take > room {
			take = room
		}
		if err := rw.cur.add(recs[:take]); err != nil {
			return err
		}
		recs = recs[take:]
		if rw.cur.count >= rw.s.chunkRecs {
			if err := rw.roll(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (rw *rollingWriter[T]) roll() error {
	rf, err := rw.cur.finish()
	rw.cur = nil
	if err != nil {
		return err
	}
	rw.runs = append(rw.runs, rf)
	return nil
}

func (rw *rollingWriter[T]) finish() ([]*runFile, error) {
	if rw.cur != nil && rw.cur.count > 0 {
		if err := rw.roll(); err != nil {
			return nil, err
		}
	}
	if rw.cur != nil {
		rw.cur.abort()
		rw.cur = nil
	}
	return rw.runs, nil
}

func (rw *rollingWriter[T]) abort() {
	if rw.cur != nil {
		rw.cur.abort()
		rw.cur = nil
	}
	for _, rf := range rw.runs {
		os.Remove(rf.path)
	}
}

// adoptRuns replaces the spilled contents with out's runs (total records),
// deleting the old files and unspilling if the survivors fit the budget.
func (s *Store[T]) adoptRuns(out *rollingWriter[T], total int) error {
	runs, err := out.finish()
	if err != nil {
		return err
	}
	for _, rf := range s.runs {
		os.Remove(rf.path)
	}
	s.runs = runs
	s.n = total
	return s.maybeUnspill()
}

// maybeUnspill pulls the contents back into memory once they fit the
// budget again, so a store that shrank stops paying streaming costs.
func (s *Store[T]) maybeUnspill() error {
	if len(s.runs) == 0 || s.n > s.chunkRecs {
		return nil
	}
	mem := make([]T, 0, s.n)
	frame := make([]T, s.frameRecs)
	err := s.streamRuns(frame, func(batch []T) error {
		mem = append(mem, batch...)
		return nil
	})
	if err != nil {
		return err
	}
	for _, rf := range s.runs {
		os.Remove(rf.path)
	}
	s.runs = nil
	s.mem = mem
	s.n = len(mem)
	s.noteResident(s.recBytes(len(mem)))
	return nil
}

// reset drops all contents, keeping allocated buffers where possible.
func (s *Store[T]) reset() error {
	for _, rf := range s.runs {
		os.Remove(rf.path)
	}
	s.runs = nil
	s.mem = s.mem[:0]
	s.n = 0
	return nil
}

// mask returns the filter scratch mask, zeroed, of length n.
func (s *Store[T]) mask(n int) []bool {
	if cap(s.keep) < n {
		s.keep = make([]bool, n)
	}
	m := s.keep[:n]
	for i := range m {
		m[i] = false
	}
	return m
}

// compact keeps data[i] where mask[i], in place, returning the kept prefix.
func compact[T any](data []T, mask []bool) []T {
	k := 0
	for i := range data {
		if mask[i] {
			data[k] = data[i]
			k++
		}
	}
	return data[:k]
}
