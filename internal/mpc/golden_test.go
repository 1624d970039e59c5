package mpc

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"mpcspanner/internal/graph"
)

// mpcGolden is one build's pinned output: an FNV-64a digest of its EdgeIDs
// and the whole simulated cost profile. The spill fields are those of the
// quarter-footprint build; the resident build must report them as zero.
type mpcGolden struct {
	edges                              uint64
	rounds, iterations, epochs, sorts  int
	treeOps                            int
	moved                              int64
	peakLoad, peakTotal                int
	spilledBytes, spillRuns, mergePass int64
}

// goldenMPCBuilds were recorded from the driver that kept its B3/B4
// decisions in hash maps and re-flipped cluster coins per tuple, so a
// change to what the plane selects, sorts, charges or spills fails here
// at both worker counts and both memory modes. The spill columns were
// re-recorded when the mirror routing sort became a charge (Sim.ChargeSort)
// instead of a permutation, and again when the host tuple dropped its
// cluster labels (a 20-byte record) and Step C's relabel moved into the
// epoch's last grow pass; every other column kept its value.
var goldenMPCBuilds = map[string]mpcGolden{
	"gnp-weighted/k=4/t=1":  {0x2cab1b2ee3932f4, 57, 2, 2, 7, 11, 18380, 20, 4890, 725720, 28, 4},
	"gnp-weighted/k=8/t=3":  {0xf4d9ab04362dbe9, 93, 4, 2, 11, 19, 31212, 20, 4890, 1265680, 49, 8},
	"gnp-weighted/k=16/t=4": {0xfce8e154c987bf5, 147, 7, 2, 17, 31, 50224, 20, 4890, 1970720, 72, 12},
	"grid-unit/k=4/t=1":     {0xd4461412b996e316, 57, 2, 2, 7, 11, 4278, 20, 1520, 101640, 6, 1},
	"grid-unit/k=8/t=3":     {0x216af22ce77bbf9e, 79, 4, 1, 9, 17, 6610, 20, 1520, 111680, 6, 1},
	"grid-unit/k=16/t=4":    {0x9a46b6eb4e560af, 147, 7, 2, 17, 31, 10714, 20, 1520, 187520, 11, 2},
	"pa/k=4/t=1":            {0x69c3bc2fc00d65bd, 57, 2, 2, 7, 11, 7746, 20, 2388, 204680, 9, 2},
	"pa/k=8/t=3":            {0x3f28bad82732ae03, 93, 4, 2, 11, 19, 12054, 20, 2388, 366120, 19, 4},
	"pa/k=16/t=4":           {0x7c18fdf2b3e2d82b, 147, 7, 2, 17, 31, 19162, 20, 2388, 637240, 32, 7},
	"gnm-ties/k=4/t=1":      {0x38e60a2b2df35986, 82, 2, 2, 7, 11, 14376, 13, 4000, 692320, 28, 5},
	"gnm-ties/k=8/t=3":      {0xbe8931acf5833ea5, 114, 4, 1, 9, 17, 25662, 13, 4000, 1094960, 42, 8},
	"gnm-ties/k=16/t=4":     {0x30fedd16e1c8b27, 192, 7, 1, 15, 29, 34814, 13, 4000, 1427280, 53, 10},
}

// TestMPCBuildGolden pins the MPC plane's spanner and absolute round bill on
// four graph families at three (k, t) pairs, at Workers 1 and pinWorkers(),
// resident and under a quarter-footprint byte budget.
func TestMPCBuildGolden(t *testing.T) {
	t.Parallel()
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-weighted", graph.GNP(400, 0.03, graph.UniformWeight(1, 50), 31)},
		{"grid-unit", graph.Grid(20, 20, graph.UnitWeight, 32)},
		{"pa", graph.PreferentialAttachment(400, 3, graph.UniformWeight(1, 20), 33)},
		// Tie-heavy: group minima and dedup are decided by the Orig tie-break.
		{"gnm-ties", graph.GNM(150, 2000, graph.PowerWeight(2, 2), 5)},
	}
	for _, gr := range graphs {
		budget := int64(2*gr.g.M()*tupleCodec.Size) / 4
		for _, c := range []struct{ k, t int }{{4, 1}, {8, 3}, {16, 4}} {
			key := fmt.Sprintf("%s/k=%d/t=%d", gr.name, c.k, c.t)
			want := goldenMPCBuilds[key]
			for _, w := range []int{1, pinWorkers()} {
				for _, mem := range []int64{0, budget} {
					r, err := BuildSpannerCtx(context.Background(), gr.g, c.k, c.t, 41,
						Options{Gamma: 0.5, Workers: w, MemoryBudget: mem})
					if err != nil {
						t.Fatalf("%s workers=%d budget=%d: %v", key, w, mem, err)
					}
					h := fnv.New64a()
					fmt.Fprint(h, r.EdgeIDs)
					got := mpcGolden{
						edges: h.Sum64(), rounds: r.Rounds, iterations: r.Iterations,
						epochs: r.Epochs, sorts: r.Sorts, treeOps: r.TreeOps,
						moved: r.TuplesMoved, peakLoad: r.PeakMachineLoad, peakTotal: r.PeakTotalTuples,
						spilledBytes: r.SpilledBytes, spillRuns: r.SpillRuns, mergePass: r.MergePasses,
					}
					exp := want
					if mem == 0 {
						exp.spilledBytes, exp.spillRuns, exp.mergePass = 0, 0, 0
					}
					if got != exp {
						t.Errorf("%s workers=%d budget=%d:\n got  %#v,\n want %#v", key, w, mem, got, exp)
					}
				}
			}
		}
	}
}
