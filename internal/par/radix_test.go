package par

import (
	"sort"
	"testing"

	"mpcspanner/internal/xrand"
)

// sortRef stably sorts (key, idx) pairs with sort.SliceStable — the
// reference order RadixSorter must reproduce bit-for-bit.
func sortRef(keys []uint64, idx []uint32) ([]uint64, []uint32) {
	type kv struct {
		k uint64
		i uint32
	}
	pairs := make([]kv, len(keys))
	for i := range keys {
		pairs[i] = kv{keys[i], idx[i]}
	}
	sort.SliceStable(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	ks := make([]uint64, len(keys))
	is := make([]uint32, len(keys))
	for i, p := range pairs {
		ks[i] = p.k
		is[i] = p.i
	}
	return ks, is
}

func checkRadixMatchesRef(t *testing.T, name string, keys []uint64) {
	t.Helper()
	wantK, wantI := sortRef(keys, iota32(len(keys)))
	for _, w := range []int{1, 2, 3, 4, 8} {
		gotK := append([]uint64(nil), keys...)
		gotI := iota32(len(keys))
		RadixSortKeys(w, gotK, gotI)
		for i := range gotK {
			if gotK[i] != wantK[i] || gotI[i] != wantI[i] {
				t.Fatalf("%s workers=%d: slot %d = (%d,%d), want (%d,%d)",
					name, w, i, gotK[i], gotI[i], wantK[i], wantI[i])
			}
		}
	}
}

func iota32(n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i)
	}
	return out
}

func TestRadixSortKeysMatchesSliceStable(t *testing.T) {
	rng := xrand.Split(99, 0x7261646978)
	const n = 5000
	full := make([]uint64, n)
	ties := make([]uint64, n)
	lowBits := make([]uint64, n)
	sorted := make([]uint64, n)
	reversed := make([]uint64, n)
	for i := 0; i < n; i++ {
		full[i] = rng.Uint64() // exercises all 8 digit positions
		ties[i] = uint64(rng.Intn(7))
		lowBits[i] = uint64(rng.Intn(1 << 20)) // upper passes constant → skipped
		sorted[i] = uint64(i)
		reversed[i] = uint64(n - i)
	}
	checkRadixMatchesRef(t, "full-range", full)
	checkRadixMatchesRef(t, "heavy-ties", ties)
	checkRadixMatchesRef(t, "low-bits", lowBits)
	checkRadixMatchesRef(t, "sorted", sorted)
	checkRadixMatchesRef(t, "reversed", reversed)
	checkRadixMatchesRef(t, "constant", make([]uint64, n))
	checkRadixMatchesRef(t, "empty", nil)
	checkRadixMatchesRef(t, "single", []uint64{42})
}

// TestRadixSorterReuse pins the retained-scratch contract: after a first
// sort sized the buffers, repeat sorts of same-size inputs allocate nothing.
func TestRadixSorterReuse(t *testing.T) {
	rng := xrand.Split(7, 0x7261646978)
	const n = 4096
	keys := make([]uint64, n)
	idx := make([]uint32, n)
	var rs RadixSorter
	fill := func() {
		for i := range keys {
			keys[i] = rng.Uint64()
			idx[i] = uint32(i)
		}
	}
	fill()
	rs.Sort(1, keys, idx)
	allocs := testing.AllocsPerRun(10, func() {
		fill()
		rs.Sort(1, keys, idx)
	})
	if allocs > 0 {
		t.Fatalf("steady-state RadixSorter.Sort allocated %.0f objects/op, want 0", allocs)
	}
	for i := 1; i < n; i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("keys out of order at %d after reuse", i)
		}
	}
}

// FuzzRadixSortKeys cross-checks arbitrary key streams against
// sort.SliceStable, the ISSUE-mandated fuzz oracle.
func FuzzRadixSortKeys(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 255, 254}, uint8(2))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 1}, uint8(4))
	f.Fuzz(func(t *testing.T, raw []byte, workers uint8) {
		n := len(raw) / 8
		keys := make([]uint64, n)
		for i := 0; i < n; i++ {
			for b := 0; b < 8; b++ {
				keys[i] = keys[i]<<8 | uint64(raw[i*8+b])
			}
		}
		w := int(workers%8) + 1
		gotK := append([]uint64(nil), keys...)
		gotI := iota32(n)
		RadixSortKeys(w, gotK, gotI)
		wantK, wantI := sortRef(keys, iota32(n))
		for i := range wantK {
			if gotK[i] != wantK[i] || gotI[i] != wantI[i] {
				t.Fatalf("workers=%d slot %d: (%d,%d) want (%d,%d)", w, i, gotK[i], gotI[i], wantK[i], wantI[i])
			}
		}
	})
}
