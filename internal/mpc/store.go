package mpc

import (
	"encoding/binary"
	"math"

	"mpcspanner/internal/extmem"
	"mpcspanner/internal/par"
)

// tupleStore is the pluggable backing store of a Sim: where the simulated
// cluster's tuples physically live. The resident store is today's behavior
// — one heap slice plus a reusable scratch arena, zero overhead over the
// pre-store simulator. The spilling store keeps tuples in
// budget-bounded extmem run files. Every operation is order-preserving and
// bit-deterministic across implementations and worker counts, which is
// what lets a budgeted build reproduce an unbudgeted one exactly. filter's
// keep may rewrite the tuple it is handed; kept tuples keep the rewrite.
type tupleStore interface {
	len() int
	loadFrom(hint int, fill func(emit func(Tuple))) error
	sortLess(less func(a, b *Tuple) bool) error
	sortKey(key func(*Tuple) uint64) error
	scan(fn func(*Tuple)) error
	update(fn func(*Tuple)) error
	filter(keep func(*Tuple) bool) error
	segments(same func(a, b *Tuple) bool, fn func(shard int, seg []Tuple)) error
	filterSegments(same func(a, b *Tuple) bool, decide func(seg []Tuple, keep []bool)) error
	close() error
}

// tupleCodec is the on-disk record format of a spilled Tuple: 28
// little-endian bytes, field for field. A pure function of the tuple, so
// spill round-trips are exact (weights travel as IEEE-754 bit patterns).
var tupleCodec = extmem.Codec[Tuple]{
	Size: 28,
	Encode: func(dst []byte, t *Tuple) {
		binary.LittleEndian.PutUint32(dst[0:], uint32(t.Src))
		binary.LittleEndian.PutUint32(dst[4:], uint32(t.Dst))
		binary.LittleEndian.PutUint32(dst[8:], uint32(t.CSrc))
		binary.LittleEndian.PutUint32(dst[12:], uint32(t.CDst))
		binary.LittleEndian.PutUint64(dst[16:], math.Float64bits(t.W))
		binary.LittleEndian.PutUint32(dst[24:], uint32(t.Orig))
	},
	Decode: func(src []byte, t *Tuple) {
		t.Src = int32(binary.LittleEndian.Uint32(src[0:]))
		t.Dst = int32(binary.LittleEndian.Uint32(src[4:]))
		t.CSrc = int32(binary.LittleEndian.Uint32(src[8:]))
		t.CDst = int32(binary.LittleEndian.Uint32(src[12:]))
		t.W = math.Float64frombits(binary.LittleEndian.Uint64(src[16:]))
		t.Orig = int32(binary.LittleEndian.Uint32(src[24:]))
	},
}

// residentStore keeps every tuple in one backing slice; machine i owns the
// i-th contiguous block of at most S tuples (the canonical balanced
// placement every [GSZ11] sort re-establishes). The scratch arena below is
// sized on first use and reused across rounds, so the steady-state
// primitives allocate nothing. Buffers never shrink — the tuple count only
// decreases after load, so first-round sizing is the high-water mark.
type residentStore struct {
	workers int
	data    []Tuple

	mask    []bool          // filter/Keep compaction mask
	sortBuf []Tuple         // merge/permutation scratch for the per-round sorts
	keys    []uint64        // sortKey: extracted keys
	idx     []uint32        // sortKey: permutation carrier
	sorter  par.RadixSorter // retained radix ping-pong buffers + histograms
	isStart []bool          // segmentStarts boundary flags
	starts  []int           // segmentStarts result backing store
}

func (r *residentStore) len() int { return len(r.data) }

func (r *residentStore) loadFrom(hint int, fill func(emit func(Tuple))) error {
	if cap(r.data) < hint {
		r.data = make([]Tuple, 0, hint)
	}
	r.data = r.data[:0]
	fill(func(t Tuple) { r.data = append(r.data, t) })
	return nil
}

func (r *residentStore) sortLess(less func(a, b *Tuple) bool) error {
	if cap(r.sortBuf) < len(r.data) {
		r.sortBuf = make([]Tuple, len(r.data))
	}
	par.SortStableBuf(r.workers, r.data, r.sortBuf[:len(r.data)], less)
	return nil
}

func (r *residentStore) sortKey(key func(t *Tuple) uint64) error {
	n := len(r.data)
	if cap(r.sortBuf) < n {
		r.sortBuf = make([]Tuple, n)
	}
	if cap(r.keys) < n {
		r.keys = make([]uint64, n)
		r.idx = make([]uint32, n)
	}
	keys, idx := r.keys[:n], r.idx[:n]
	if r.workers <= 1 {
		for i := range r.data {
			keys[i] = key(&r.data[i])
			idx[i] = uint32(i)
		}
	} else {
		par.For(r.workers, n, func(i int) {
			keys[i] = key(&r.data[i])
			idx[i] = uint32(i)
		})
	}
	r.sorter.Sort(r.workers, keys, idx)
	// Apply the permutation through the retained tuple scratch, then swap
	// the backing stores (ping-pong; no copy back).
	dst := r.sortBuf[:n]
	if r.workers <= 1 {
		for i, j := range idx {
			dst[i] = r.data[j]
		}
	} else {
		par.For(r.workers, n, func(i int) { dst[i] = r.data[idx[i]] })
	}
	r.data, r.sortBuf = dst, r.data[:cap(r.data)]
	return nil
}

func (r *residentStore) scan(fn func(*Tuple)) error {
	for i := range r.data {
		fn(&r.data[i])
	}
	return nil
}

func (r *residentStore) update(fn func(*Tuple)) error {
	par.For(r.workers, len(r.data), func(i int) { fn(&r.data[i]) })
	return nil
}

func (r *residentStore) filter(keep func(*Tuple) bool) error {
	mask := r.maskScratch(len(r.data))
	if r.workers <= 1 {
		for i := range r.data {
			mask[i] = keep(&r.data[i])
		}
	} else {
		par.For(r.workers, len(r.data), func(i int) { mask[i] = keep(&r.data[i]) })
	}
	r.keep(mask)
	return nil
}

// keep retains exactly the tuples whose mask entry is true, preserving
// order. Survivors shift left in place; nothing is reallocated.
func (r *residentStore) keep(mask []bool) {
	if len(mask) != len(r.data) {
		panic("mpc: Keep mask length mismatch")
	}
	w := 0
	for i := range r.data {
		if mask[i] {
			if w != i {
				r.data[w] = r.data[i]
			}
			w++
		}
	}
	r.data = r.data[:w]
}

func (r *residentStore) maskScratch(n int) []bool {
	if cap(r.mask) < n {
		r.mask = make([]bool, n)
	}
	return r.mask[:n]
}

// segmentStarts returns the start index of every maximal run of
// consecutive tuples for which sameKey holds between neighbors. Boundary
// detection is a local comparison with the left neighbor, so it
// parallelizes over the machine blocks; the returned starts are in
// increasing order and independent of the worker count.
func (r *residentStore) segmentStarts(sameKey func(a, b *Tuple) bool) []int {
	n := len(r.data)
	if n == 0 {
		return nil
	}
	if cap(r.isStart) < n {
		r.isStart = make([]bool, n)
		r.starts = make([]int, 0, n)
	}
	isStart := r.isStart[:n]
	isStart[0] = true
	if r.workers <= 1 {
		for i := 0; i < n-1; i++ {
			isStart[i+1] = !sameKey(&r.data[i], &r.data[i+1])
		}
	} else {
		par.For(r.workers, n-1, func(i int) {
			isStart[i+1] = !sameKey(&r.data[i], &r.data[i+1])
		})
	}
	starts := r.starts[:0]
	for i, s := range isStart {
		if s {
			starts = append(starts, i)
		}
	}
	r.starts = starts
	return starts
}

func (r *residentStore) segments(same func(a, b *Tuple) bool, fn func(shard int, seg []Tuple)) error {
	starts := r.segmentStarts(same)
	data := r.data
	par.ForShard(r.workers, len(starts), func(shard, s0, s1 int) {
		for si := s0; si < s1; si++ {
			end := len(data)
			if si+1 < len(starts) {
				end = starts[si+1]
			}
			fn(shard, data[starts[si]:end])
		}
	})
	return nil
}

func (r *residentStore) filterSegments(same func(a, b *Tuple) bool, decide func(seg []Tuple, keep []bool)) error {
	starts := r.segmentStarts(same)
	data := r.data
	mask := r.maskScratch(len(data))
	for i := range mask {
		mask[i] = false
	}
	par.ForShard(r.workers, len(starts), func(_, s0, s1 int) {
		for si := s0; si < s1; si++ {
			end := len(data)
			if si+1 < len(starts) {
				end = starts[si+1]
			}
			decide(data[starts[si]:end], mask[starts[si]:end])
		}
	})
	r.keep(mask)
	return nil
}

func (r *residentStore) close() error { return nil }

// spillStore adapts extmem.Store to the tupleStore interface: everything
// but the trivial delegation — budgets, run files, external merges — lives
// in internal/extmem.
type spillStore struct {
	ext *extmem.Store[Tuple]
}

func newSpillStore(budget int64, workers int, met *extmem.Metrics) *spillStore {
	return &spillStore{ext: extmem.NewStore(tupleCodec, extmem.Options{
		Budget:  budget,
		Workers: workers,
		Metrics: met,
	})}
}

func (s *spillStore) len() int { return s.ext.Len() }
func (s *spillStore) loadFrom(hint int, fill func(emit func(Tuple))) error {
	return s.ext.LoadFrom(hint, fill)
}
func (s *spillStore) sortLess(less func(a, b *Tuple) bool) error { return s.ext.SortLess(less) }
func (s *spillStore) sortKey(key func(*Tuple) uint64) error      { return s.ext.SortKey(key) }
func (s *spillStore) scan(fn func(*Tuple)) error                 { return s.ext.Scan(fn) }
func (s *spillStore) update(fn func(*Tuple)) error               { return s.ext.Update(fn) }
func (s *spillStore) filter(keep func(*Tuple) bool) error        { return s.ext.Filter(keep) }
func (s *spillStore) segments(same func(a, b *Tuple) bool, fn func(shard int, seg []Tuple)) error {
	return s.ext.Segments(same, fn)
}
func (s *spillStore) filterSegments(same func(a, b *Tuple) bool, decide func(seg []Tuple, keep []bool)) error {
	return s.ext.FilterSegments(same, decide)
}
func (s *spillStore) close() error { return s.ext.Close() }
