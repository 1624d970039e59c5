package spanner

import (
	"context"
	"math"

	"mpcspanner/internal/cluster"
	"mpcspanner/internal/core"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/par"
	"mpcspanner/internal/xrand"
)

// UnweightedOptions configures the Appendix B algorithm.
type UnweightedOptions struct {
	// Seed drives all randomness (ball-independent shared coins).
	Seed uint64

	// Gamma is the per-machine memory exponent γ ∈ (0, 1): balls are capped
	// at n^{γ/2} vertices and the hitting set has expected size
	// Õ(n^{1−γ/4}). Zero means 1/2.
	Gamma float64

	// Workers sizes the worker pool (par conventions: 0 = GOMAXPROCS,
	// 1 = serial); the ball growing and the embedded [BS07] runs fan out
	// over it. Negative values are rejected.
	Workers int

	// Progress, when non-nil, receives one event per stage of the
	// construction ("balls", "sparse", "dense") plus the events of the
	// embedded [BS07] runs. Same contract as Options.Progress.
	Progress func(core.ProgressEvent)
}

// UnweightedStats reports the structural quantities of an Unweighted run.
type UnweightedStats struct {
	K, SparseCount, DenseCount int
	BallCap                    int     // n^{γ/2} vertex cap per ball
	HittingSetSize             int     // |Z| including fallback promotions
	AuxNodes, AuxEdges         int     // auxiliary graph on Z
	AuxSpannerEdges            int     // spanner edges of the auxiliary graph
	PathEdges                  int     // BFS-path edges dense vertices add
	BS07Edges                  int     // region-restricted Baswana–Sen edges
	Rounds                     int     // simulated MPC rounds (see RoundsUnweighted)
	StretchBound               float64 // O(k/γ) guarantee actually certified
}

// UnweightedResult is the output of the Appendix B construction.
type UnweightedResult struct {
	EdgeIDs []int
	Stats   UnweightedStats
}

// Size returns the number of spanner edges.
func (r *UnweightedResult) Size() int { return len(r.EdgeIDs) }

// Spanner materializes the spanner subgraph.
func (r *UnweightedResult) Spanner(g *graph.Graph) *graph.Graph { return g.Subgraph(r.EdgeIDs) }

// UnweightedCtx builds an O(k/γ)-stretch spanner of an unweighted graph with
// O(k·n^{1+1/k}) + O(k·n) edges in O((1/γ)(log k + 1/γ)) simulated MPC
// rounds, following Appendix B (the Parter–Yogev adaptation):
//
//   - every vertex grows a BFS ball of up to 4k hops, truncated at n^{γ/2}
//     vertices; complete balls mark the vertex sparse, truncated ones dense;
//   - edges with a sparse endpoint are covered by locally simulating [BS07]
//     with shared randomness — realized here by one global [BS07] run
//     restricted to the 2k-hop region around sparse vertices, which is
//     exactly what the joint local simulations compute;
//   - dense-dense edges are covered by a random hitting set Z (expected size
//     Õ(n^{1−γ/4})): every dense vertex keeps its BFS path to the nearest
//     z ∈ Z (vertices whose ball Z misses are promoted into Z, preserving
//     correctness on the low-probability tail), and a (2⌈2/γ⌉−1)-spanner of
//     the auxiliary graph on Z — whose edges are realized by original
//     edges — covers inter-assignment pairs.
//
// Unlike the weighted algorithms, this one differs from the paper in one
// documented way: the paper recurses on the contracted dense subgraph O(1)
// times, while this implementation resolves all dense-dense edges with a
// single hitting-set level. The stretch and size guarantees are unchanged
// (DESIGN.md, substitutions table).
//
// ctx is checkpointed between the construction's stages (ball growing, the
// sparse-side [BS07] run, each dense-side subphase) and inside the embedded
// engine runs, returning core.Canceled(ctx.Err()) at the first checkpoint
// after cancellation. Checkpoints never change what is computed.
func UnweightedCtx(ctx context.Context, g *graph.Graph, k int, opt UnweightedOptions) (*UnweightedResult, error) {
	if k < 1 {
		return nil, &core.OptionError{Field: "spanner: k", Value: k,
			Reason: "stretch parameter must be >= 1"}
	}
	if !g.IsUnit() {
		return nil, &core.OptionError{Field: "spanner: graph", Value: "weighted",
			Reason: "Unweighted requires an unweighted (unit-weight) graph"}
	}
	gamma := opt.Gamma
	if gamma == 0 {
		gamma = 0.5
	}
	if gamma <= 0 || gamma >= 1 {
		return nil, &core.OptionError{Field: "spanner: UnweightedOptions.Gamma", Value: gamma,
			Reason: "must lie in (0,1)"}
	}
	if err := par.CheckWorkers("spanner: UnweightedOptions.Workers", opt.Workers); err != nil {
		return nil, err
	}
	workers := par.Workers(opt.Workers)
	emit := func(stage string, edges int) {
		if opt.Progress != nil {
			opt.Progress(core.ProgressEvent{Stage: stage, Algorithm: "unweighted",
				Supernodes: g.N(), SpannerEdges: edges})
		}
	}

	n := g.N()
	st := UnweightedStats{K: k}
	inSpanner := make([]bool, g.M())
	size := 0
	add := func(id int) {
		if !inSpanner[id] {
			inSpanner[id] = true
			size++
		}
	}

	// --- Ball growing: sparse/dense split. -------------------------------
	ballCap := int(math.Ceil(math.Pow(float64(n), gamma/2)))
	if ballCap < 2 {
		ballCap = 2
	}
	st.BallCap = ballCap
	// The per-vertex balls are independent (the paper grows them in parallel
	// via graph exponentiation); each vertex writes only its own slot.
	if err := core.Check(ctx); err != nil {
		return nil, err
	}
	sparse := make([]bool, n)
	par.For(workers, n, func(v int) {
		_, truncated := dist.BFSBall(g, v, 4*k, ballCap)
		sparse[v] = !truncated
	})
	for v := 0; v < n; v++ {
		if sparse[v] {
			st.SparseCount++
		} else {
			st.DenseCount++
		}
	}
	emit("balls", 0)

	// --- Sparse side: region-restricted global [BS07]. -------------------
	// The 2k-hop region around sparse vertices contains every vertex of the
	// [BS07] spanning path of any sparse-incident edge (cluster radii are at
	// most k, so paths stay within 2k hops of a sparse endpoint).
	region := make([]bool, n)
	var sparseSet []int
	for v := 0; v < n; v++ {
		if sparse[v] {
			sparseSet = append(sparseSet, v)
		}
	}
	if len(sparseSet) > 0 {
		if err := core.Check(ctx); err != nil {
			return nil, err
		}
		hop := growForest(g, sparseSet).hop
		for v := 0; v < n; v++ {
			if hop[v] >= 0 && hop[v] <= 2*k {
				region[v] = true
			}
		}
		bs, err := BaswanaSenCtx(ctx, g, k, Options{Seed: xrand.Split(opt.Seed, 0x627337).Uint64(), Workers: opt.Workers, Progress: opt.Progress}) // "bs7"
		if err != nil {
			return nil, err
		}
		for _, id := range bs.EdgeIDs {
			e := g.Edge(id)
			if region[e.U] && region[e.V] {
				add(id)
				st.BS07Edges++
			}
		}
	}
	emit("sparse", size)

	// --- Dense side: hitting set + auxiliary-graph spanner. --------------
	if st.DenseCount > 0 {
		if err := core.Check(ctx); err != nil {
			return nil, err
		}
		pZ := 4 * math.Log(float64(n)+2) / math.Pow(float64(n), gamma/4)
		inZ := make([]bool, n)
		var zs []int
		for v := 0; v < n; v++ {
			if !sparse[v] {
				if xrand.CoinAt(pZ, opt.Seed, 0x7a736574, uint64(v)) { // "zset"
					inZ[v] = true
					zs = append(zs, v)
				}
			}
		}
		// Fallback promotions keep the construction correct on the tail
		// where Z misses a dense ball: any dense vertex farther than 4k
		// hops from Z, or unreachable from it, joins Z itself. Hops to a
		// grown Z only shrink, so one pass leaves no such vertex; the
		// assignment then needs the grown Z's forest.
		f := growForest(g, zs)
		promoted := false
		for v := 0; v < n; v++ {
			if !sparse[v] && !inZ[v] && (f.hop[v] < 0 || f.hop[v] > 4*k) {
				inZ[v] = true
				zs = append(zs, v)
				promoted = true
			}
		}
		if promoted {
			f = growForest(g, zs)
		}
		st.HittingSetSize = len(zs)

		// Assignment: the root of v's tree in Z's forest, and the forest
		// path to it.
		assigned := make([]int, n)
		for v := range assigned {
			assigned[v] = -1
		}
		for v := 0; v < n; v++ {
			if sparse[v] || f.hop[v] < 0 {
				continue
			}
			assigned[v] = zs[f.root[v]]
			for x := v; f.parent[x].edge >= 0; x = f.parent[x].to {
				if !inSpanner[f.parent[x].edge] {
					st.PathEdges++
				}
				add(f.parent[x].edge)
			}
		}

		// Auxiliary graph on Z: one node per hitting-set vertex, an edge per
		// assignment-crossing original dense-dense edge (min-id realizer).
		zIndex := make(map[int]int, len(zs))
		for i, z := range zs {
			zIndex[z] = i
		}
		var aux []cluster.QEdge
		for id, e := range g.Edges() {
			if sparse[e.U] || sparse[e.V] {
				continue
			}
			za, zb := assigned[e.U], assigned[e.V]
			if za < 0 || zb < 0 || za == zb {
				continue
			}
			aux = append(aux, cluster.QEdge{A: zIndex[za], B: zIndex[zb], W: 1, Orig: id})
		}
		aux = cluster.MinDedup(aux, 1, nil)
		st.AuxNodes, st.AuxEdges = len(zs), len(aux)

		if len(aux) > 0 {
			auxEdges := make([]graph.Edge, len(aux))
			for i, q := range aux {
				auxEdges[i] = graph.Edge{U: q.A, V: q.B, W: 1}
			}
			auxG := graph.MustNew(len(zs), auxEdges)
			kAux := int(math.Ceil(2 / gamma))
			auxR, err := BaswanaSenCtx(ctx, auxG, kAux, Options{Seed: xrand.Split(opt.Seed, 0x617578).Uint64(), Workers: opt.Workers, Progress: opt.Progress}) // "aux"
			if err != nil {
				return nil, err
			}
			for _, ai := range auxR.EdgeIDs {
				add(aux[ai].Orig)
				st.AuxSpannerEdges++
			}
			// Certified stretch for dense-dense edges:
			// 4k (to Z) + (2k'−1)·(8k+1) (aux path realized) + 4k (back).
			st.StretchBound = float64(8*k) + float64(2*kAux-1)*float64(8*k+1)
		}
	}
	if st.DenseCount > 0 {
		// Even with an empty auxiliary graph, same-assignment dense-dense
		// edges route through their hitting-set vertex: up to 8k hops.
		if pathBound := float64(8 * k); pathBound > st.StretchBound {
			st.StretchBound = pathBound
		}
	}
	if bsBound := float64(2*k - 1); bsBound > st.StretchBound {
		st.StretchBound = bsBound
	}
	emit("dense", size)
	st.Rounds = RoundsUnweighted(k, gamma)
	return &UnweightedResult{EdgeIDs: markedIDs(inSpanner, size), Stats: st}, nil
}

// RoundsUnweighted returns the simulated MPC round count of the Appendix B
// algorithm with memory exponent γ: O(log k) graph-exponentiation doublings
// for ball collection plus ⌈2/γ⌉ locally-simulated [BS07] iterations on the
// auxiliary graph, each costing O(1/γ) rounds of sorting/aggregation
// (Theorem 1.3's O((1/γ)·log k) with the additive auxiliary term).
func RoundsUnweighted(k int, gamma float64) int {
	perPrimitive := int(math.Ceil(1 / gamma))
	doublings := int(math.Ceil(math.Log2(float64(4*k)))) + 1
	aux := int(math.Ceil(2 / gamma))
	return perPrimitive * (doublings + aux)
}

// forest is a multi-source BFS forest over hops: hop[v] is v's least hop
// distance to a source (−1 if no source reaches v), root[v] the index into the
// sources of the root of v's tree, which achieves that distance, and
// parent[v] the first arc of v's tree path to it (to and edge −1 at roots and
// unreachable vertices). A repeated source counts at its first position.
type forest struct {
	hop, root []int
	parent    []parentArc
}

type parentArc struct {
	to   int
	edge int
}

// growForest grows the forest of srcs by one BFS, which breaks ties by queue
// order: each vertex joins the tree of the first vertex to reach it.
func growForest(g *graph.Graph, srcs []int) forest {
	n := g.N()
	f := forest{hop: make([]int, n), root: make([]int, n), parent: make([]parentArc, n)}
	for v := 0; v < n; v++ {
		f.hop[v], f.root[v], f.parent[v] = -1, -1, parentArc{to: -1, edge: -1}
	}
	queue := make([]int, 0, n)
	for i, s := range srcs {
		if f.hop[s] < 0 {
			f.hop[s], f.root[s] = 0, i
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, a := range g.Adj(v) {
			if f.hop[a.To] < 0 {
				f.hop[a.To], f.root[a.To] = f.hop[v]+1, f.root[v]
				f.parent[a.To] = parentArc{to: v, edge: a.Edge}
				queue = append(queue, a.To)
			}
		}
	}
	return f
}
