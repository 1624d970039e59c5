package extmem

// External sorting by a uint64 key. Resident contents sort in memory with
// par.RadixSorter. Spilled contents sort in two phases:
//
//  1. chunking — stream the contents into budget-sized chunks, sort each
//     chunk in memory with that same radix sort, write each back as a
//     sorted run;
//  2. merging — k-way merge adjacent runs, as many at once as the budget
//     has frames for, until one run remains. At practical budgets that is
//     a single pass over all the chunk runs.
//
// Both phases preserve stability: chunks cover consecutive stretches of the
// original order, every merge takes a consecutive group of runs, and equal
// records leave a merge in run order. The final permutation is therefore the
// unique stable-sort permutation — bit-identical to the resident sort at
// every worker count and every budget.

import (
	"os"

	"mpcspanner/internal/par"
)

// SortKey stably sorts the contents ascending by key, exactly matching the
// resident radix sort's output order.
func (s *Store[T]) SortKey(key func(*T) uint64) error {
	if len(s.runs) == 0 {
		// The permuted copy becomes the contents and the old contents the
		// next sort's buffer: a swap, not a copy back.
		s.mem, s.sortBuf = s.sortMemKey(s.mem, key), s.mem
		return nil
	}
	return s.externalSort(key)
}

// sortMemKey is the in-memory key sort: extract radix keys, stable radix
// sort of (key, index), apply the permutation into the retained sort
// buffer, which it returns. data itself is left as it was. A single worker
// runs the loops inline: closures handed to par.For escape to the heap.
func (s *Store[T]) sortMemKey(data []T, key func(*T) uint64) []T {
	n := len(data)
	keys := s.growKeys(n)
	if cap(s.sortIdx) < n {
		s.sortIdx = make([]uint32, n)
	}
	idx := s.sortIdx[:n]
	buf := s.growBuf(n)
	if s.workers <= 1 {
		for i := range data {
			keys[i] = key(&data[i])
			idx[i] = uint32(i)
		}
		s.sorter.Sort(1, keys, idx)
		for i, j := range idx {
			buf[i] = data[j]
		}
		return buf
	}
	par.For(s.workers, n, func(i int) {
		keys[i] = key(&data[i])
		idx[i] = uint32(i)
	})
	s.sorter.Sort(s.workers, keys, idx)
	par.For(s.workers, n, func(j int) { buf[j] = data[idx[j]] })
	return buf
}

func (s *Store[T]) growBuf(n int) []T {
	if cap(s.sortBuf) < n {
		s.sortBuf = make([]T, n)
	}
	return s.sortBuf[:n]
}

func (s *Store[T]) growKeys(n int) []uint64 {
	if cap(s.sortKeys) < n {
		s.sortKeys = make([]uint64, n)
	}
	return s.sortKeys[:n]
}

func (s *Store[T]) growSlab(n int) []byte {
	if cap(s.sortSlab) < n {
		s.sortSlab = make([]byte, n)
	}
	return s.sortSlab[:n]
}

// externalSort rewrites the spilled contents as sorted chunk runs, then
// merges them until one run holds everything.
func (s *Store[T]) externalSort(key func(*T) uint64) error {
	if err := s.sortChunks(key); err != nil {
		return err
	}
	for len(s.runs) > 1 {
		s.noteMergePass()
		fanIn, frame := s.mergeShape(len(s.runs))
		next := make([]*runFile, 0, (len(s.runs)+fanIn-1)/fanIn)
		for i := 0; i < len(s.runs); i += fanIn {
			group := s.runs[i:min(i+fanIn, len(s.runs))]
			if len(group) == 1 {
				next = append(next, group[0])
				continue
			}
			m, err := s.mergeRuns(group, frame, key)
			if err != nil {
				// The failed group's inputs are intact, so the store still
				// holds every record.
				s.runs = append(next, s.runs[i:]...)
				return err
			}
			for _, rf := range group {
				os.Remove(rf.path)
			}
			next = append(next, m)
		}
		s.runs = next
	}
	return nil
}

// sortChunks streams the spilled contents into the retained chunk buffer
// (the resident buffer, empty while spilled), sorts every full chunk in
// memory and writes it back as one sorted run. The old runs are removed
// once every sorted run has committed.
func (s *Store[T]) sortChunks(key func(*T) uint64) error {
	chunk := s.mem[:0]
	if cap(chunk) < s.chunkRecs {
		chunk = make([]T, 0, s.chunkRecs)
	}
	s.mem = chunk
	slab := s.growSlab(2 * s.frameRecs * s.codec.Size)
	rslab, wslab := slab[:len(slab)/2], slab[len(slab)/2:]
	var sorted []*runFile
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		// chunk is the resident buffer's array, so the sorted copy comes
		// back by copy: a swap would leave the resident and sort buffers
		// sharing one array.
		copy(chunk, s.sortMemKey(chunk, key))
		s.noteResident(2 * s.recBytes(len(chunk))) // chunk + sort scratch
		w, err := s.newRunWriter(wslab)
		if err != nil {
			return err
		}
		if err := w.add(chunk); err != nil {
			w.abort()
			return err
		}
		rf, err := w.finish()
		if err != nil {
			return err
		}
		sorted = append(sorted, rf)
		chunk = chunk[:0]
		return nil
	}
	err := s.eachRun(rslab, func(r *runReader[T]) error {
		for {
			n, err := r.fill(chunk[len(chunk):s.chunkRecs])
			if err != nil || n == 0 {
				return err
			}
			if chunk = chunk[:len(chunk)+n]; len(chunk) == s.chunkRecs {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	})
	if err == nil {
		err = flush()
	}
	if err != nil {
		for _, rf := range sorted {
			os.Remove(rf.path)
		}
		return err
	}
	for _, rf := range s.runs {
		os.Remove(rf.path)
	}
	s.runs = sorted
	return nil
}

// mergeShape sizes one merge pass over runs sorted runs: the widest fan-in
// whose input frames plus the output frame fit the budget, never below 2.
// An input frame holds decoded records, their raw bytes and their cached
// keys; the output frame is raw bytes only. Frames shrink toward
// minFrameRecs before the fan-in is cut, and never grow past frameRecs.
func (s *Store[T]) mergeShape(runs int) (fanIn, frame int) {
	in, out := int64(2*s.codec.Size+8), int64(s.codec.Size)
	if f := s.budget / (int64(runs)*in + out); f >= minFrameRecs {
		return runs, int(min(f, int64(s.frameRecs)))
	}
	return int(max(2, (s.budget/minFrameRecs-out)/in)), minFrameRecs
}

// mergeIn is one input run of a k-way merge: its reader and its frame of
// decoded records and their cached keys, consumed from pos.
type mergeIn[T any] struct {
	r      *runReader[T]
	recs   []T
	keys   []uint64
	pos, n int
}

// mergeRuns merges the adjacent sorted runs ins into one new run, each
// input streaming through a frame of the given record count. The frames
// live in the store's retained sort buffers. A loser tree picks the next
// record by (key, run index), so equal keys leave in run order and the
// merge is stable. key runs once per record, as its frame fills. The inputs
// are left in place for the caller to remove once the merged run has
// committed.
func (s *Store[T]) mergeRuns(ins []*runFile, frame int, key func(*T) uint64) (*runFile, error) {
	k, size := len(ins), frame*s.codec.Size
	recs := s.growBuf(k * frame)
	keys := s.growKeys(k * frame)
	slab := s.growSlab((k + 1) * size)
	s.noteResident(s.recBytes(2*k*frame) + int64(size) + int64(8*k*frame))

	in := make([]mergeIn[T], k)
	defer func() {
		for i := range in {
			if in[i].r != nil {
				in[i].r.close()
			}
		}
	}()
	refill := func(i int) error {
		x := &in[i]
		n, err := x.r.fill(x.recs)
		if err != nil {
			return err
		}
		x.pos, x.n = 0, n
		for j := range n {
			x.keys[j] = key(&x.recs[j])
		}
		return nil
	}
	for i, rf := range ins {
		r, err := s.openRun(rf, slab[i*size:(i+1)*size])
		if err != nil {
			return nil, err
		}
		in[i] = mergeIn[T]{r: r, recs: recs[i*frame : (i+1)*frame], keys: keys[i*frame : (i+1)*frame]}
		if err := refill(i); err != nil {
			return nil, err
		}
	}

	// beats reports whether run a's head leaves before run b's: exhausted
	// runs lose to everything, and ties go to the lower run index.
	beats := func(a, b int) bool {
		x, y := &in[a], &in[b]
		if y.pos == y.n {
			return true
		}
		if x.pos == x.n {
			return false
		}
		if a < b {
			return x.keys[x.pos] <= y.keys[y.pos]
		}
		return x.keys[x.pos] < y.keys[y.pos]
	}
	// tree[1:k] holds the loser of each internal match (leaf i sits at
	// position k+i) and tree[0] the overall winner.
	tree := make([]int, k)
	win := make([]int, 2*k)
	for i := range k {
		win[k+i] = i
	}
	for node := k - 1; node > 0; node-- {
		a, b := win[2*node], win[2*node+1]
		if !beats(a, b) {
			a, b = b, a
		}
		win[node], tree[node] = a, b
	}
	tree[0] = win[1]

	w, err := s.newRunWriter(slab[k*size:])
	if err != nil {
		return nil, err
	}
	for {
		top := tree[0]
		x := &in[top]
		if x.pos == x.n {
			break // every input is exhausted
		}
		if err = w.put(&x.recs[x.pos]); err != nil {
			break
		}
		if x.pos++; x.pos == x.n {
			if err = refill(top); err != nil {
				break
			}
		}
		for node := (top + k) / 2; node > 0; node /= 2 {
			if beats(tree[node], top) {
				tree[node], top = top, tree[node]
			}
		}
		tree[0] = top
	}
	if err != nil {
		w.abort()
		return nil, err
	}
	return w.finish()
}
