package oracle

import "sort"

// RowSource serves precomputed distance rows — typically the frozen row
// section of a saved artifact. FrozenRow returns the full distance row from
// src and true, or ok=false when src is not precomputed. Implementations
// must be safe for concurrent use and must return rows of exactly n
// float64s that are never mutated afterwards; the oracle hands them to
// callers directly.
type RowSource interface {
	FrozenRow(src int) ([]float64, bool)
}

// SnapshotRows returns the rows currently resident in o's cache, sorted by
// source — src[i]'s distance row is rows[i]. The row slices are shared with
// the cache (and with any callers holding them): treat them as read-only.
// Sessions use this to persist a warm cache into an artifact, so a restarted
// replica starts with its hot set frozen instead of cold.
func SnapshotRows(o *Oracle) (srcs []int, rows [][]float64) {
	for i := range o.shards {
		sh := &o.shards[i]
		sh.mu.Lock()
		for src, e := range sh.rows {
			srcs = append(srcs, src)
			rows = append(rows, e.row)
		}
		sh.mu.Unlock()
	}
	sort.Sort(&rowSort{srcs, rows})
	return srcs, rows
}

type rowSort struct {
	srcs []int
	rows [][]float64
}

func (s *rowSort) Len() int           { return len(s.srcs) }
func (s *rowSort) Less(i, j int) bool { return s.srcs[i] < s.srcs[j] }
func (s *rowSort) Swap(i, j int) {
	s.srcs[i], s.srcs[j] = s.srcs[j], s.srcs[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}
