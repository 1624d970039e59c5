package par

// This file is the one sort of the construction pipeline: the radix-keyed
// shuffle behind the MPC simulator's global sorts (mpc.Sim.SortByKey, and
// through it extmem's chunk sorts) and the spanner engine's pair dedup
// (cluster.MinDedup). Every caller keys its records by the labels that
// define its groups — a vertex or label pair packs into at most 62 bits —
// and reads each group's minimum in the pass that scans the group, so no
// sort needs a comparator. An LSD radix sort over precomputed uint64 keys
// touches each element a constant number of times with no per-comparison
// indirection, and — because scatter offsets are precomputed per (pass,
// shard, bucket) — it is stable and bit-identical at every worker count,
// the same contract every other primitive of this package carries.

const (
	radixBits    = 8
	radixBuckets = 1 << radixBits
	radixPasses  = 64 / radixBits
)

// radixHist is one shard's histogram set: one bucket row per pass, all
// gathered in a single read of the keys.
type radixHist [radixPasses][radixBuckets]uint32

// RadixSorter is a reusable radix-sort instance: the ping-pong buffers,
// per-shard histograms, and SortIndexByKey's primary key/index arrays are
// retained across calls, so steady-state sorts of same-or-smaller inputs
// allocate nothing. The zero value is ready to use. A RadixSorter is not
// safe for concurrent use.
type RadixSorter struct {
	keyBuf []uint64
	idxBuf []uint32
	hists  []radixHist

	// SortIndexByKey scratch (separate from the ping-pong pair above, which
	// Sort consumes as its scatter destination).
	keys []uint64
	idx  []uint32
}

// RadixSortKeys stably sorts the (keys[i], idx[i]) pairs by key, ascending,
// using a throwaway RadixSorter. Callers on a hot path should retain a
// RadixSorter and call its Sort method instead, which reuses the scratch.
func RadixSortKeys(workers int, keys []uint64, idx []uint32) {
	var rs RadixSorter
	rs.Sort(workers, keys, idx)
}

// Sort stably reorders keys ascending, applying the identical permutation to
// idx (callers load idx with 0..n-1 to obtain the sort permutation, or with
// payload handles to shuffle records by key). len(idx) must equal len(keys).
//
// The sort is LSD over 8-bit digits. Digit positions that are constant
// across the whole input (detected from one OR/AND aggregate over the keys —
// a byte is constant iff OR and AND agree there, a property independent of
// element order) permute nothing and are skipped, so keys that use only the
// low k bits pay ⌈k/8⌉ scatter passes, not 8. Each live pass scatters
// through offsets precomputed per (shard, bucket) on the current layout —
// shard s's elements of a bucket land before shard s+1's, and in layout
// order within a shard, which is exactly the stable serial order. The result
// is therefore bit-identical to sort.SliceStable on the keys at every worker
// count.
func (rs *RadixSorter) Sort(workers int, keys []uint64, idx []uint32) {
	n := len(keys)
	if len(idx) != n {
		panic("par: RadixSorter key/index length mismatch")
	}
	if n < 2 {
		return
	}
	shards := ShardCount(workers, n)
	if cap(rs.keyBuf) < n {
		rs.keyBuf = make([]uint64, n)
		rs.idxBuf = make([]uint32, n)
	}
	if shards > len(rs.hists) {
		rs.hists = append(rs.hists, make([]radixHist, shards-len(rs.hists))...)
	}
	hists := rs.hists[:shards]

	// Constant-byte detection: (orAll ^ andAll) has a zero byte exactly where
	// every key agrees, and XOR/AND aggregates are layout-independent, so this
	// is computed once up front.
	var orAll, andAll uint64
	andAll = ^uint64(0)
	if shards == 1 {
		for _, k := range keys {
			orAll |= k
			andAll &= k
		}
	} else {
		ors := make([]uint64, shards)
		ands := make([]uint64, shards)
		ForShard(workers, n, func(shard, lo, hi int) {
			o, a := uint64(0), ^uint64(0)
			for _, k := range keys[lo:hi] {
				o |= k
				a &= k
			}
			ors[shard], ands[shard] = o, a
		})
		for s := 0; s < shards; s++ {
			orAll |= ors[s]
			andAll &= ands[s]
		}
	}
	varying := orAll ^ andAll

	if shards == 1 {
		// Serial fast path: offsets depend only on digit totals, which the
		// permutation never changes, so one read of the keys histograms every
		// live pass at once and each pass goes straight to its scatter.
		h := &hists[0]
		*h = radixHist{}
		for _, k := range keys {
			for p := 0; p < radixPasses; p++ {
				if varying>>(radixBits*p)&0xFF != 0 {
					h[p][uint8(k>>(radixBits*p))]++
				}
			}
		}
		srcK, srcI := keys, idx
		dstK, dstI := rs.keyBuf[:n], rs.idxBuf[:n]
		for p := 0; p < radixPasses; p++ {
			if varying>>(radixBits*p)&0xFF == 0 {
				continue
			}
			off := &h[p]
			pos := uint32(0)
			for b := 0; b < radixBuckets; b++ {
				c := off[b]
				off[b] = pos
				pos += c
			}
			shift := radixBits * p
			for i, k := range srcK {
				b := uint8(k >> shift)
				o := off[b]
				off[b] = o + 1
				dstK[o] = k
				dstI[o] = srcI[i]
			}
			srcK, srcI, dstK, dstI = dstK, dstI, srcK, srcI
		}
		if &srcK[0] != &keys[0] {
			copy(keys, srcK)
			copy(idx, srcI)
		}
		return
	}

	// Parallel path: a pass's per-shard histogram must describe the *current*
	// layout (the previous scatter moved elements between shard ranges), so
	// each live pass histograms and then scatters.
	srcK, srcI := keys, idx
	dstK, dstI := rs.keyBuf[:n], rs.idxBuf[:n]
	for p := 0; p < radixPasses; p++ {
		if varying>>(radixBits*p)&0xFF == 0 {
			continue
		}
		shift := radixBits * p
		sk, si, dk, di := srcK, srcI, dstK, dstI
		ForShard(workers, n, func(shard, lo, hi int) {
			row := &hists[shard][0]
			*row = [radixBuckets]uint32{}
			for _, k := range sk[lo:hi] {
				row[uint8(k>>shift)]++
			}
		})
		// Per-shard counts become scatter offsets: bucket-major, shard-minor
		// — the order that makes the parallel scatter reproduce the serial
		// stable order.
		pos := uint32(0)
		for b := 0; b < radixBuckets; b++ {
			for s := 0; s < shards; s++ {
				c := hists[s][0][b]
				hists[s][0][b] = pos
				pos += c
			}
		}
		ForShard(workers, n, func(shard, lo, hi int) {
			off := &hists[shard][0]
			for i := lo; i < hi; i++ {
				k := sk[i]
				b := uint8(k >> shift)
				o := off[b]
				off[b] = o + 1
				dk[o] = k
				di[o] = si[i]
			}
		})
		srcK, srcI, dstK, dstI = dstK, dstI, srcK, srcI
	}
	if &srcK[0] != &keys[0] {
		copy(keys, srcK)
		copy(idx, srcI)
	}
}

// SortIndexByKey returns the stable ascending-by-key permutation of [0, n):
// out[r] is the index of the record with the r-th smallest key(i), equal
// keys in index order. It is the shape of the one radix-keyed record
// reordering outside the MPC arena (the pair dedup): extract keys in
// parallel, seed the identity permutation, one stable radix sort. key must
// be pure (it is invoked concurrently). The returned slice aliases the
// sorter's retained scratch — it is invalidated by the sorter's next call,
// so callers consume it before sorting again.
func (rs *RadixSorter) SortIndexByKey(workers, n int, key func(i int) uint64) []uint32 {
	if cap(rs.keys) < n {
		rs.keys = make([]uint64, n)
		rs.idx = make([]uint32, n)
	}
	keys, idx := rs.keys[:n], rs.idx[:n]
	For(workers, n, func(i int) {
		keys[i] = key(i)
		idx[i] = uint32(i)
	})
	rs.Sort(workers, keys, idx)
	return idx
}
