package bench

import (
	"context"
	"math"

	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

// A1EqualRoundBudget ablates the paper's central design choice —
// contraction epochs with doubling sampling exponents — by comparing against
// the natural alternative under the *same iteration budget*: simply running
// [BS07] with a smaller stretch parameter k' such that k'−1 matches the
// iteration count. The claim being isolated: for a fixed round budget,
// contractions buy strictly more sparsification, because the quotient graph
// shrinks fast enough to justify ever-more-aggressive sampling.
func A1EqualRoundBudget(cfg Config) Table {
	tb := Table{
		ID:     "A1",
		Title:  "Ablation: contraction schedule vs truncated [BS07] at equal iteration budget",
		Claim:  "given the same number of grow iterations, the contraction schedule reaches a larger effective k (sparser spanner) than running [BS07] with k' = iterations+1",
		Header: []string{"iters", "general k", "general size", "BS07 k'", "BS07 size", "size ratio", "gen stretch", "bs stretch"},
	}
	n := cfg.scale(3000, 500)
	samples := cfg.scale(1200, 300)
	g := graph.GNP(n, 16/float64(n), graph.UniformWeight(1, 40), cfg.Seed+160)
	for _, k := range []int{16, 32, 64} {
		t := int(math.Max(1, math.Ceil(math.Log2(float64(k)))))
		gen, err := spanner.GeneralCtx(context.Background(), g, k, t, spanner.Options{Seed: cfg.Seed + 161})
		if err != nil {
			panic(err)
		}
		kPrime := gen.Stats.Iterations + 1
		bs, err := spanner.BaswanaSenCtx(context.Background(), g, kPrime, spanner.Options{Seed: cfg.Seed + 161})
		if err != nil {
			panic(err)
		}
		genRep := measureStretch(g, gen.EdgeIDs, samples, cfg.Seed+162)
		bsRep := measureStretch(g, bs.EdgeIDs, samples, cfg.Seed+162)
		tb.AddRow(fmtI(gen.Stats.Iterations), fmtI(k), fmtI(gen.Size()),
			fmtI(kPrime), fmtI(bs.Size()),
			fmtF(float64(gen.Size())/float64(bs.Size())),
			fmtF(genRep.Max), fmtF(bsRep.Max))
	}
	tb.Note("size ratio < 1 means the contraction schedule sparsifies more per round; stretch columns show what that costs on this workload")
	return tb
}

// A2RepetitionPicker ablates the expectation-to-w.h.p. mechanism: how much
// does best-of-R repetition (Section 6's parallel repetitions; Theorem 8.1's
// per-iteration variant lives in T10) actually buy on the size, and at what
// diminishing rate.
func A2RepetitionPicker(cfg Config) Table {
	tb := Table{
		ID:     "A2",
		Title:  "Ablation: best-of-R parallel repetitions (the w.h.p. size mechanism)",
		Claim:  "the expected-size guarantee concentrates: repetitions shave the tail, with fast-diminishing returns",
		Header: []string{"R", "size", "vs R=1", "winning rep"},
	}
	n := cfg.scale(2500, 500)
	g := graph.GNP(n, 12/float64(n), graph.UniformWeight(1, 20), cfg.Seed+170)
	base := 0
	for _, reps := range []int{1, 2, 4, 8, 16} {
		r, err := spanner.GeneralCtx(context.Background(), g, 8, 2, spanner.Options{Seed: cfg.Seed + 171, Repetitions: reps})
		if err != nil {
			panic(err)
		}
		if reps == 1 {
			base = r.Size()
		}
		tb.AddRow(fmtI(reps), fmtI(r.Size()), fmtF(float64(r.Size())/float64(base)),
			fmtI(r.Stats.Repetition))
	}
	return tb
}
