package bench

import (
	"context"
	"fmt"
	"math"

	"mpcspanner/internal/apsp"
	"mpcspanner/internal/cclique"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/mpc"
	"mpcspanner/internal/oracle"
	"mpcspanner/internal/pram"
	"mpcspanner/internal/spanner"
)

// workload names a generated instance.
type workload struct {
	name string
	g    *graph.Graph
}

// standardWorkloads is the graph family most tables sweep.
func standardWorkloads(cfg Config) []workload {
	n := cfg.scale(2000, 400)
	side := cfg.scale(45, 20)
	return []workload{
		{"gnp", graph.GNP(n, 10/float64(n), graph.UniformWeight(1, 100), cfg.Seed+1)},
		{"grid", graph.Grid(side, side, graph.UniformWeight(1, 10), cfg.Seed+2)},
		{"pa", graph.PreferentialAttachment(n, 5, graph.ExpWeight(8), cfg.Seed+3)},
	}
}

// measureStretch samples edge stretch of the spanner edge set in g.
func measureStretch(g *graph.Graph, edgeIDs []int, samples int, seed uint64) dist.StretchReport {
	h := g.Subgraph(edgeIDs)
	rep, err := dist.SampledEdgeStretch(g, h, samples, seed)
	if err != nil {
		panic(err) // vertex sets always match here
	}
	return rep
}

// sizeBudget is the Theorem 5.15 envelope n^{1+1/k}(t + log k).
func sizeBudget(n, k, t int) float64 {
	return math.Pow(float64(n), 1+1/float64(k)) * (float64(t) + math.Log2(float64(k)) + 1)
}

// T1GeneralTradeoff validates Theorem 1.1 / Theorem 5.15: iterations,
// size, and stretch of General(k, t) across workloads and parameters.
func T1GeneralTradeoff(cfg Config) Table {
	tb := Table{
		ID:     "T1",
		Title:  "General trade-off algorithm (Theorem 1.1 / 5.15)",
		Claim:  "O(t·log k/log(t+1)) iterations, size O(n^{1+1/k}(t+log k)), stretch O(k^s), s=log(2t+1)/log(t+1)",
		Header: []string{"graph", "n", "m", "k", "t", "iters", "iterBound", "size", "size/budget", "stretch", "stretchBound"},
	}
	samples := cfg.scale(1500, 300)
	for _, w := range standardWorkloads(cfg) {
		for _, k := range []int{4, 8, 16} {
			for _, t := range []int{1, 2, 3} {
				r, err := spanner.GeneralCtx(context.Background(), w.g, k, t, spanner.Options{Seed: cfg.Seed + 10})
				if err != nil {
					panic(err)
				}
				rep := measureStretch(w.g, r.EdgeIDs, samples, cfg.Seed+11)
				tb.AddRow(w.name, fmtI(w.g.N()), fmtI(w.g.M()), fmtI(k), fmtI(t),
					fmtI(r.Stats.Iterations), fmtI(spanner.IterationBound(k, t)),
					fmtI(r.Size()), fmtF(float64(r.Size())/sizeBudget(w.g.N(), k, t)),
					fmtF(rep.Max), fmtF(spanner.StretchBound(k, t)))
			}
		}
	}
	tb.Note("stretch sampled over %d edges; size/budget is the hidden constant of Theorem 5.15", samples)
	return tb
}

// T2ClusterMerge validates Corollary 1.2(1): t=1 runs in O(log k) epochs
// with stretch O(k^{log 3}) and size O(n^{1+1/k}·log k).
func T2ClusterMerge(cfg Config) Table {
	tb := Table{
		ID:     "T2",
		Title:  "Cluster-cluster merging, t=1 (Corollary 1.2(1) / §4)",
		Claim:  "O(log k) epochs, stretch O(k^{log 3}), size O(n^{1+1/k}·log k)",
		Header: []string{"graph", "k", "epochs", "log2(k)", "iters", "size", "size/budget", "stretch", "2k^log3"},
	}
	samples := cfg.scale(1500, 300)
	for _, w := range standardWorkloads(cfg)[:2] {
		for _, k := range []int{4, 8, 16, 32} {
			r, err := spanner.ClusterMergeCtx(context.Background(), w.g, k, spanner.Options{Seed: cfg.Seed + 20})
			if err != nil {
				panic(err)
			}
			rep := measureStretch(w.g, r.EdgeIDs, samples, cfg.Seed+21)
			tb.AddRow(w.name, fmtI(k), fmtI(r.Stats.Epochs), fmtF(math.Log2(float64(k))),
				fmtI(r.Stats.Iterations), fmtI(r.Size()),
				fmtF(float64(r.Size())/sizeBudget(w.g.N(), k, 1)),
				fmtF(rep.Max), fmtF(spanner.StretchBound(k, 1)))
		}
	}
	return tb
}

// T3StretchEps validates Corollary 1.2(2)-(3): larger t trades iterations
// for stretch k^{1+ε} down to k^{1+o(1)} at t = log k.
func T3StretchEps(cfg Config) Table {
	tb := Table{
		ID:     "T3",
		Title:  "Stretch k^{1+ε} and k^{1+o(1)} regimes (Corollary 1.2(2)-(3))",
		Claim:  "t=2^{1/ε} gives stretch O(k^{1+ε}); t=log k gives O(k^{1+o(1)}) in O(log²k/log log k) iterations",
		Header: []string{"graph", "k", "t", "s=log(2t+1)/log(t+1)", "iters", "stretch", "2k^s", "size"},
	}
	samples := cfg.scale(1500, 300)
	k := 16
	for _, w := range standardWorkloads(cfg)[:2] {
		for _, t := range []int{2, 4, int(math.Log2(float64(k)))} {
			r, err := spanner.GeneralCtx(context.Background(), w.g, k, t, spanner.Options{Seed: cfg.Seed + 30})
			if err != nil {
				panic(err)
			}
			rep := measureStretch(w.g, r.EdgeIDs, samples, cfg.Seed+31)
			s := math.Log(float64(2*t+1)) / math.Log(float64(t+1))
			tb.AddRow(w.name, fmtI(k), fmtI(t), fmtF(s), fmtI(r.Stats.Iterations),
				fmtF(rep.Max), fmtF(spanner.StretchBound(k, t)), fmtI(r.Size()))
		}
	}
	return tb
}

// T4NearLinear validates Corollary 1.2(4): k = log n, t = log k gives size
// O(n·log log n) and stretch O(log^{1+o(1)} n).
func T4NearLinear(cfg Config) Table {
	tb := Table{
		ID:     "T4",
		Title:  "Near-linear spanner, k = log n (Corollary 1.2(4))",
		Claim:  "size O(n·log log n), stretch O(log^{1+o(1)} n), O(log² log n / log log log n) iterations",
		Header: []string{"n", "m", "k=log n", "t=log k", "iters", "size", "size/(n·loglog n)", "stretch", "bound"},
	}
	samples := cfg.scale(1200, 300)
	sizes := []int{1000, 2000, 4000}
	if cfg.Quick {
		sizes = []int{300, 600}
	}
	for _, n := range sizes {
		g := graph.GNP(n, 12/float64(n), graph.UniformWeight(1, 50), cfg.Seed+40)
		k := int(math.Ceil(math.Log2(float64(n))))
		t := int(math.Ceil(math.Log2(float64(k))))
		r, err := spanner.GeneralCtx(context.Background(), g, k, t, spanner.Options{Seed: cfg.Seed + 41})
		if err != nil {
			panic(err)
		}
		rep := measureStretch(g, r.EdgeIDs, samples, cfg.Seed+42)
		loglog := math.Log2(math.Log2(float64(n)))
		tb.AddRow(fmtI(n), fmtI(g.M()), fmtI(k), fmtI(t), fmtI(r.Stats.Iterations),
			fmtI(r.Size()), fmtF(float64(r.Size())/(float64(n)*loglog)),
			fmtF(rep.Max), fmtF(spanner.StretchBound(k, t)))
	}
	return tb
}

// T5SqrtK validates §3 (Theorems 3.1/3.4): t = √k gives O(√k) iterations,
// size O(√k·n^{1+1/k}), stretch O(k).
func T5SqrtK(cfg Config) Table {
	tb := Table{
		ID:     "T5",
		Title:  "Two-phase √k algorithm (§3, Theorems 3.1 and 3.4)",
		Claim:  "O(√k) iterations, size O(√k·n^{1+1/k}), stretch O(k)",
		Header: []string{"graph", "k", "⌈√k⌉", "iters", "size", "size/(√k·n^{1+1/k})", "stretch", "bound"},
	}
	samples := cfg.scale(1500, 300)
	for _, w := range standardWorkloads(cfg)[:2] {
		for _, k := range []int{4, 9, 16, 25} {
			r, err := spanner.SqrtKCtx(context.Background(), w.g, k, spanner.Options{Seed: cfg.Seed + 50})
			if err != nil {
				panic(err)
			}
			sq := int(math.Ceil(math.Sqrt(float64(k))))
			rep := measureStretch(w.g, r.EdgeIDs, samples, cfg.Seed+51)
			budget := math.Sqrt(float64(k)) * math.Pow(float64(w.g.N()), 1+1/float64(k))
			tb.AddRow(w.name, fmtI(k), fmtI(sq), fmtI(r.Stats.Iterations), fmtI(r.Size()),
				fmtF(float64(r.Size())/budget), fmtF(rep.Max), fmtF(spanner.StretchBound(k, sq)))
		}
	}
	return tb
}

// T6ClusterMergeWeighted validates Theorem 4.14 on heavy-tailed weighted
// graphs (the weighted-stretch machinery of §4.2.1).
func T6ClusterMergeWeighted(cfg Config) Table {
	tb := Table{
		ID:     "T6",
		Title:  "Cluster merging on weighted graphs (Theorem 4.14)",
		Claim:  "stretch O(k^{log 3}) and size O(n^{1+1/k}·log k) hold under arbitrary positive weights",
		Header: []string{"weights", "k", "epochs", "size", "size/budget", "stretch", "bound"},
	}
	n := cfg.scale(1500, 400)
	samples := cfg.scale(1500, 300)
	weightings := []struct {
		name string
		w    graph.WeightFn
	}{
		{"unit", graph.UnitWeight},
		{"uniform[1,1e3)", graph.UniformWeight(1, 1000)},
		{"exp(50)", graph.ExpWeight(50)},
		{"power 4^0..7", graph.PowerWeight(4, 8)},
	}
	for _, wt := range weightings {
		g := graph.GNP(n, 12/float64(n), wt.w, cfg.Seed+60)
		k := 8
		r, err := spanner.ClusterMergeCtx(context.Background(), g, k, spanner.Options{Seed: cfg.Seed + 61})
		if err != nil {
			panic(err)
		}
		rep := measureStretch(g, r.EdgeIDs, samples, cfg.Seed+62)
		tb.AddRow(wt.name, fmtI(k), fmtI(r.Stats.Epochs), fmtI(r.Size()),
			fmtF(float64(r.Size())/sizeBudget(n, k, 1)), fmtF(rep.Max), fmtF(spanner.StretchBound(k, 1)))
	}
	return tb
}

// T7Unweighted validates Theorem 1.3 / Appendix B on unit-weight graphs.
func T7Unweighted(cfg Config) Table {
	tb := Table{
		ID:     "T7",
		Title:  "Unweighted O(k)-stretch spanner (Theorem 1.3 / Appendix B)",
		Claim:  "O((1/γ)·log k) rounds, size O(k·n^{1+1/k}) plus O(k·n) path edges, stretch O(k/γ)",
		Header: []string{"graph", "k", "sparse", "dense", "|Z|", "rounds", "size", "size/(k·n^{1+1/k}+k·n)", "stretch", "certBound"},
	}
	n := cfg.scale(1200, 300)
	samples := cfg.scale(1200, 300)
	instances := []workload{
		{"gnp-dense", graph.GNP(n, 20/float64(n), graph.UnitWeight, cfg.Seed+70)},
		{"gnp-sparse", graph.GNP(n, 4/float64(n), graph.UnitWeight, cfg.Seed+71)},
		{"grid", graph.Grid(cfg.scale(35, 17), cfg.scale(35, 17), graph.UnitWeight, cfg.Seed+72)},
	}
	for _, w := range instances {
		for _, k := range []int{2, 3} {
			r, err := spanner.UnweightedCtx(context.Background(), w.g, k, spanner.UnweightedOptions{Seed: cfg.Seed + 73})
			if err != nil {
				panic(err)
			}
			rep := measureStretch(w.g, r.EdgeIDs, samples, cfg.Seed+74)
			nn := float64(w.g.N())
			budget := float64(k)*math.Pow(nn, 1+1/float64(k)) + float64(k)*nn
			tb.AddRow(w.name, fmtI(k), fmtI(r.Stats.SparseCount), fmtI(r.Stats.DenseCount),
				fmtI(r.Stats.HittingSetSize), fmtI(r.Stats.Rounds), fmtI(r.Size()),
				fmtF(float64(r.Size())/budget), fmtF(rep.Max), fmtF(r.Stats.StretchBound))
		}
	}
	tb.Note("γ = 1/2; rounds follow the Appendix B exponentiation + auxiliary-simulation formula")
	return tb
}

// T8MPCRounds validates the Section 6 MPC implementation: simulated rounds,
// memory per machine, and cross-plane output equality.
func T8MPCRounds(cfg Config) Table {
	tb := Table{
		ID:     "T8",
		Title:  "MPC implementation (Theorem 1.1 / §6)",
		Claim:  "O((1/γ)·t·log k/log(t+1)) rounds with n^γ memory/machine and Õ(m) total memory; output identical to the sequential reference",
		Header: []string{"γ", "k", "t", "machines", "S", "rounds", "roundBound", "peakLoad", "peakTotal/2m", "sameAsRef"},
	}
	n := cfg.scale(1500, 400)
	g := graph.GNP(n, 14/float64(n), graph.UniformWeight(1, 40), cfg.Seed+80)
	for _, gamma := range []float64{0.75, 0.5, 0.33} {
		for _, c := range []struct{ k, t int }{{8, 1}, {8, 2}, {16, 4}} {
			res, err := mpc.BuildSpannerCtx(context.Background(), g, c.k, c.t, cfg.Seed+81,
				mpc.Options{Gamma: gamma, Metrics: cfg.Metrics})
			if err != nil {
				panic(err)
			}
			ref, err := spanner.GeneralCtx(context.Background(), g, c.k, c.t, spanner.Options{Seed: cfg.Seed + 81})
			if err != nil {
				panic(err)
			}
			same := len(res.EdgeIDs) == len(ref.EdgeIDs)
			for i := 0; same && i < len(res.EdgeIDs); i++ {
				same = res.EdgeIDs[i] == ref.EdgeIDs[i]
			}
			sim, _ := mpc.NewSim(g.N(), 2*g.M(), gamma)
			tb.AddRow(fmtF(gamma), fmtI(c.k), fmtI(c.t), fmtI(res.Machines), fmtI(res.MemoryPerMachine),
				fmtI(res.Rounds), fmtI(mpc.RoundBound(sim, c.k, c.t)), fmtI(res.PeakMachineLoad),
				fmtF(float64(res.PeakTotalTuples)/float64(2*g.M())), fmt.Sprintf("%v", same))
		}
	}
	return tb
}

// T9APSP validates Corollary 1.4 / §7.
func T9APSP(cfg Config) Table {
	tb := Table{
		ID:     "T9",
		Title:  "Approximate APSP in near-linear MPC (Corollary 1.4 / §7)",
		Claim:  "O(log^s n)-approximate APSP in O(t·log log n/log(t+1)) rounds; spanner fits one Õ(n) machine",
		Header: []string{"n", "t", "k", "rounds", "spannerSize", "Õ(n) budget", "fits", "approxMax", "approxMean", "bound"},
	}
	sizes := []int{1000, 2500}
	if cfg.Quick {
		sizes = []int{300, 600}
	}
	for _, n := range sizes {
		g := graph.Connectify(graph.GNP(n, 10/float64(n), graph.UniformWeight(1, 100), cfg.Seed+90), 50)
		for _, t := range []int{0, 1} { // 0 = Corollary default loglog n
			res, err := apsp.ApproxCtx(context.Background(), g, apsp.Options{Seed: cfg.Seed + 91, T: t, Metrics: cfg.Metrics})
			if err != nil {
				panic(err)
			}
			if cfg.Metrics != nil {
				// Run a small query sample through the serving oracle so an
				// instrumented dump carries the oracle_* latency and cache
				// series alongside the build-side mpc_* series.
				o := oracle.New(res.Spanner(), oracle.Options{Metrics: cfg.Metrics})
				if _, err := o.QueryMany(context.Background(), oracle.ZipfWorkload(n, 64, 1.2, cfg.Seed+93)); err != nil {
					panic(err)
				}
			}
			rep, err := res.Measure(cfg.scale(20, 8), cfg.Seed+92)
			if err != nil {
				panic(err)
			}
			tb.AddRow(fmtI(n), fmtI(res.T), fmtI(res.K), fmtI(res.Rounds), fmtI(res.SpannerSize),
				fmtI(res.CollectorWords), fmt.Sprintf("%v", res.FitsOneMachine),
				fmtF(rep.Max), fmtF(rep.Mean), fmtF(res.Bound))
		}
	}
	tb.Note("approx sampled over Dijkstra sources against exact distances; bound is 2·k^s with k=⌈log₂n⌉")
	return tb
}

// T10CongestedClique validates Theorem 8.1 and Corollary 1.5.
func T10CongestedClique(cfg Config) Table {
	tb := Table{
		ID:     "T10",
		Title:  "Congested Clique spanner + APSP (Theorem 8.1, Corollary 1.5)",
		Claim:  "w.h.p. size via per-iteration run selection at O(1) extra rounds; APSP via Lenzen collection in sublogarithmic rounds",
		Header: []string{"n", "k", "t", "spanRounds", "roundBound", "goodIters/total", "size", "whpBudget", "apspRounds", "approxMax", "bound"},
	}
	sizes := []int{600, 1200}
	if cfg.Quick {
		sizes = []int{250, 500}
	}
	for _, n := range sizes {
		g := graph.Connectify(graph.GNP(n, 10/float64(n), graph.UniformWeight(1, 20), cfg.Seed+100), 10)
		k, t := spanner.APSPParams(n)
		sp, err := cclique.BuildSpannerCtx(context.Background(), g, k, t, spanner.Options{Seed: cfg.Seed + 101})
		if err != nil {
			panic(err)
		}
		ap, err := cclique.ApproxAPSPCtx(context.Background(), g, spanner.Options{Seed: cfg.Seed + 101})
		if err != nil {
			panic(err)
		}
		rep, err := ap.MeasureApproximation(cfg.scale(15, 6), cfg.Seed+102)
		if err != nil {
			panic(err)
		}
		tb.AddRow(fmtI(n), fmtI(k), fmtI(t), fmtI(sp.Rounds), fmtI(cclique.RoundBound(k, t)),
			fmt.Sprintf("%d/%d", sp.WHP.GoodCount, len(sp.WHP.Choices)),
			fmtI(len(sp.EdgeIDs)), fmtF(spanner.SizeBoundWHP(n, k, t)),
			fmtI(ap.Rounds), fmtF(rep.Max), fmtF(ap.Bound))
	}
	return tb
}

// T11PRAMDepth validates the §6 PRAM discussion.
func T11PRAMDepth(cfg Config) Table {
	tb := Table{
		ID:     "T11",
		Title:  "PRAM depth and work (§6 PRAM paragraph)",
		Claim:  "depth = iterations × O(log* n) — o(k) for every t — with Õ(m) work",
		Header: []string{"k", "t", "iters", "depth", "depthBound", "k·log*n (BS07)", "work/m"},
	}
	n := cfg.scale(2000, 400)
	g := graph.GNP(n, 12/float64(n), graph.UniformWeight(1, 9), cfg.Seed+110)
	ls := pram.LogStar(float64(n))
	for _, c := range []struct{ k, t int }{{16, 1}, {64, 1}, {64, 3}, {256, 1}} {
		res, costs, err := pram.SpannerCostsWorkers(g, c.k, c.t, cfg.Seed+111, 0)
		if err != nil {
			panic(err)
		}
		tb.AddRow(fmtI(c.k), fmtI(c.t), fmtI(res.Stats.Iterations),
			fmtI(int(costs.Depth)), fmtI(int(pram.DepthBound(n, c.k, c.t))),
			fmtI(c.k*ls), fmtF(float64(costs.Work)/float64(g.M())))
	}
	return tb
}

// T12Baseline is the paper's headline comparison: poly(log k) iterations
// instead of Θ(k), at bounded stretch cost.
func T12Baseline(cfg Config) Table {
	tb := Table{
		ID:     "T12",
		Title:  "Baseline comparison: [BS07] vs this paper's algorithms",
		Claim:  "the general algorithm needs exponentially fewer iterations than [BS07] for near-optimal stretch",
		Header: []string{"algorithm", "k", "iters", "epochs", "size", "stretch", "certBound"},
	}
	n := cfg.scale(2000, 400)
	samples := cfg.scale(1500, 300)
	g := graph.GNP(n, 12/float64(n), graph.UniformWeight(1, 60), cfg.Seed+120)
	k := 16
	runs := []struct {
		name string
		run  func() (*spanner.Result, float64)
	}{
		{"baswana-sen", func() (*spanner.Result, float64) {
			r, err := spanner.BaswanaSenCtx(context.Background(), g, k, spanner.Options{Seed: cfg.Seed + 121})
			if err != nil {
				panic(err)
			}
			return r, float64(2*k - 1)
		}},
		{"sqrt-k (t=4)", func() (*spanner.Result, float64) {
			r, err := spanner.SqrtKCtx(context.Background(), g, k, spanner.Options{Seed: cfg.Seed + 121})
			if err != nil {
				panic(err)
			}
			return r, spanner.StretchBound(k, 4)
		}},
		{"general (t=log k)", func() (*spanner.Result, float64) {
			r, err := spanner.GeneralCtx(context.Background(), g, k, 4, spanner.Options{Seed: cfg.Seed + 121})
			if err != nil {
				panic(err)
			}
			return r, spanner.StretchBound(k, 4)
		}},
		{"cluster-merge (t=1)", func() (*spanner.Result, float64) {
			r, err := spanner.ClusterMergeCtx(context.Background(), g, k, spanner.Options{Seed: cfg.Seed + 121})
			if err != nil {
				panic(err)
			}
			return r, spanner.StretchBound(k, 1)
		}},
	}
	for _, rn := range runs {
		r, bound := rn.run()
		rep := measureStretch(g, r.EdgeIDs, samples, cfg.Seed+122)
		tb.AddRow(rn.name, fmtI(k), fmtI(r.Stats.Iterations), fmtI(r.Stats.Epochs),
			fmtI(r.Size()), fmtF(rep.Max), fmtF(bound))
	}
	return tb
}

// F1TradeoffCurve renders the round/stretch trade-off as a series over t.
func F1TradeoffCurve(cfg Config) Table {
	tb := Table{
		ID:     "F1",
		Title:  "Round/stretch trade-off curve (the Corollary 1.2 family as a series)",
		Claim:  "iterations grow ~t·log k/log(t+1) while stretch falls from k^{log 3} toward 2k−1",
		Header: []string{"t", "iters", "iterBound", "stretch", "stretchBound", "size"},
	}
	n := cfg.scale(2000, 400)
	samples := cfg.scale(1200, 300)
	g := graph.GNP(n, 12/float64(n), graph.UniformWeight(1, 30), cfg.Seed+130)
	k := 16
	for _, t := range []int{1, 2, 3, 4, 6, 8, 15} {
		r, err := spanner.GeneralCtx(context.Background(), g, k, t, spanner.Options{Seed: cfg.Seed + 131})
		if err != nil {
			panic(err)
		}
		rep := measureStretch(g, r.EdgeIDs, samples, cfg.Seed+132)
		tb.AddRow(fmtI(t), fmtI(r.Stats.Iterations), fmtI(spanner.IterationBound(k, t)),
			fmtF(rep.Max), fmtF(spanner.StretchBound(k, t)), fmtI(r.Size()))
	}
	tb.Note("k = %d on G(n=%d); measured stretch is a sample maximum, the bound is worst-case", k, n)
	return tb
}

// F2SizeCurve isolates the size constant across k at t = log k.
func F2SizeCurve(cfg Config) Table {
	tb := Table{
		ID:     "F2",
		Title:  "Size constant vs k at t = log k",
		Claim:  "|E_S| / (n^{1+1/k}(t+log k)) stays bounded as k grows",
		Header: []string{"k", "t=log k", "size", "budget", "constant"},
	}
	n := cfg.scale(3000, 500)
	g := graph.GNP(n, 16/float64(n), graph.UniformWeight(1, 10), cfg.Seed+140)
	for _, k := range []int{4, 8, 16, 32, 64} {
		t := int(math.Max(1, math.Ceil(math.Log2(float64(k)))))
		r, err := spanner.GeneralCtx(context.Background(), g, k, t, spanner.Options{Seed: cfg.Seed + 141})
		if err != nil {
			panic(err)
		}
		b := sizeBudget(n, k, t)
		tb.AddRow(fmtI(k), fmtI(t), fmtI(r.Size()), fmtF(b), fmtF(float64(r.Size())/b))
	}
	return tb
}

// F3ApproxCDF renders the APSP approximation distribution behind the
// worst-case bound of Corollary 1.4.
func F3ApproxCDF(cfg Config) Table {
	tb := Table{
		ID:     "F3",
		Title:  "APSP approximation CDF (distribution behind Corollary 1.4)",
		Claim:  "typical pairwise error is far below the worst-case O(log^{1+o(1)} n) bound",
		Header: []string{"graph", "p50", "p90", "p99", "max", "bound"},
	}
	n := cfg.scale(1200, 300)
	sources := cfg.scale(20, 8)
	instances := []workload{
		{"gnp", graph.Connectify(graph.GNP(n, 10/float64(n), graph.UniformWeight(1, 40), cfg.Seed+150), 20)},
		{"grid", graph.Grid(cfg.scale(34, 17), cfg.scale(34, 17), graph.UniformWeight(1, 8), cfg.Seed+151)},
		{"pa", graph.PreferentialAttachment(n, 4, graph.ExpWeight(6), cfg.Seed+152)},
	}
	for _, w := range instances {
		res, err := apsp.ApproxCtx(context.Background(), w.g, apsp.Options{Seed: cfg.Seed + 153})
		if err != nil {
			panic(err)
		}
		qs, err := res.MeasureCDF(sources, []float64{0.5, 0.9, 0.99, 1}, cfg.Seed+154)
		if err != nil {
			panic(err)
		}
		tb.AddRow(w.name, fmtF(qs[0]), fmtF(qs[1]), fmtF(qs[2]), fmtF(qs[3]), fmtF(res.Bound))
	}
	return tb
}
