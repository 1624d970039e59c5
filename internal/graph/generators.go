package graph

import (
	"fmt"
	"math"
	"slices"

	"mpcspanner/internal/xrand"
)

// WeightFn draws an edge weight. Generators call it once per emitted edge.
type WeightFn func(r *xrand.Source) float64

// UnitWeight assigns weight 1 to every edge (unweighted graphs).
func UnitWeight(*xrand.Source) float64 { return 1 }

// UniformWeight returns a WeightFn drawing uniformly from [lo, hi).
// It panics if the interval is empty or lo is not positive.
func UniformWeight(lo, hi float64) WeightFn {
	if !(lo > 0) || hi < lo {
		panic(fmt.Sprintf("graph: invalid weight interval [%v,%v)", lo, hi))
	}
	return func(r *xrand.Source) float64 { return lo + r.Float64()*(hi-lo) }
}

// ExpWeight returns a WeightFn drawing 1 + Exp(1)*scale, a heavy-ish tailed
// positive weight model that stresses the weighted-stretch analysis.
func ExpWeight(scale float64) WeightFn {
	if !(scale > 0) {
		panic("graph: ExpWeight scale must be positive")
	}
	return func(r *xrand.Source) float64 { return 1 + r.ExpFloat64()*scale }
}

// PowerWeight returns weights of the form base^Uniform{0..levels-1}; a
// discrete geometric weight ladder that produces widely separated scales.
func PowerWeight(base float64, levels int) WeightFn {
	if base <= 1 || levels < 1 {
		panic("graph: PowerWeight requires base > 1 and levels >= 1")
	}
	return func(r *xrand.Source) float64 {
		return math.Pow(base, float64(r.Intn(levels)))
	}
}

// GNP generates an Erdős–Rényi G(n, p) graph. Expected edge count is
// p·n(n−1)/2; generation uses geometric skipping so the cost is proportional
// to the number of emitted edges, not to n².
func GNP(n int, p float64, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x676e70) // "gnp"
	b := NewBuilder(n)
	if p <= 0 || n < 2 {
		return b.MustBuild()
	}
	if p >= 1 {
		return Complete(n, w, seed)
	}
	// Iterate pairs (u,v), u<v, in lexicographic order, skipping ahead by
	// geometric gaps: the next selected pair is at distance 1+floor(log(U)/log(1-p)).
	logq := math.Log(1 - p)
	total := int64(n) * int64(n-1) / 2
	idx := int64(-1)
	for {
		u := r.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		skip := int64(math.Log(u)/logq) + 1
		idx += skip
		if idx >= total {
			break
		}
		// Decode linear index into (a,b), a<b.
		a := int((math.Sqrt(8*float64(idx)+1) - 1) / 2)
		// Fix floating point drift at triangle boundaries.
		for int64(a+1)*int64(a+2)/2 <= idx {
			a++
		}
		for int64(a)*int64(a+1)/2 > idx {
			a--
		}
		bcol := int(idx - int64(a)*int64(a+1)/2)
		// Pair is (bcol, a+1) with bcol <= a.
		b.AddEdge(bcol, a+1, w(r))
	}
	return b.MustBuild()
}

// GNM generates a uniform random simple graph with exactly m distinct edges
// (m is clamped to the number of available pairs).
func GNM(n, m int, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x676e6d) // "gnm"
	maxM := int64(n) * int64(n-1) / 2
	if int64(m) > maxM {
		m = int(maxM)
	}
	b := NewBuilder(n)
	seen := make(map[int64]struct{}, m)
	for b.Len() < m {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		b.AddEdge(u, v, w(r))
	}
	return b.MustBuild()
}

// Grid generates a rows×cols 2D lattice (4-neighborhood). Vertex (i,j) is
// i*cols+j. With weighted WeightFns this is the road-network stand-in.
func Grid(rows, cols int, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x67726964) // "grid"
	b := NewBuilder(rows * cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := i*cols + j
			if j+1 < cols {
				b.AddEdge(v, v+1, w(r))
			}
			if i+1 < rows {
				b.AddEdge(v, v+cols, w(r))
			}
		}
	}
	return b.MustBuild()
}

// Torus generates a rows×cols 2D torus (grid with wraparound), which is
// vertex-transitive and has no boundary effects.
func Torus(rows, cols int, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x746f7273) // "tors"
	b := NewBuilder(rows * cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := i*cols + j
			if cols > 1 {
				b.AddEdge(v, i*cols+(j+1)%cols, w(r))
			}
			if rows > 1 {
				b.AddEdge(v, ((i+1)%rows)*cols+j, w(r))
			}
		}
	}
	return b.MustBuild()
}

// Cycle generates the n-cycle (or a single edge for n = 2).
func Cycle(n int, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x6379636c) // "cycl"
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, w(r))
	}
	if n > 2 {
		b.AddEdge(n-1, 0, w(r))
	}
	return b.MustBuild()
}

// Path generates the n-vertex path.
func Path(n int, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x70617468) // "path"
	b := NewBuilder(n)
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1, w(r))
	}
	return b.MustBuild()
}

// Star generates the n-vertex star centered at vertex 0.
func Star(n int, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x73746172) // "star"
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v, w(r))
	}
	return b.MustBuild()
}

// Complete generates K_n.
func Complete(n int, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x6b6e) // "kn"
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v, w(r))
		}
	}
	return b.MustBuild()
}

// RandomTree generates a uniform random labelled tree on n vertices via a
// random attachment sequence (each new vertex attaches to a uniform earlier
// vertex — a random recursive tree; cheap and adequate as a workload).
func RandomTree(n int, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x74726565) // "tree"
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(r.Intn(v), v, w(r))
	}
	return b.MustBuild()
}

// PreferentialAttachment generates a Barabási–Albert-style graph: vertices
// arrive one at a time and attach d edges to earlier vertices chosen
// proportionally to degree (the social-network workload the paper's
// introduction motivates). The first d+1 vertices form a clique seed.
func PreferentialAttachment(n, d int, w WeightFn, seed uint64) *Graph {
	if d < 1 {
		panic("graph: PreferentialAttachment requires d >= 1")
	}
	r := xrand.Split(seed, 0x7061) // "pa"
	b := NewBuilder(n)
	if n <= d+1 {
		return Complete(n, w, seed)
	}
	// targets holds one entry per half-edge endpoint, so uniform sampling
	// from it is degree-proportional sampling.
	targets := make([]int, 0, 2*d*n)
	for u := 0; u <= d; u++ {
		for v := u + 1; v <= d; v++ {
			b.AddEdge(u, v, w(r))
			targets = append(targets, u, v)
		}
	}
	// Each vertex's d distinct targets attach in the order they were first
	// drawn, so edge order and weight draws are a pure function of seed.
	chosen := make([]int, 0, d)
	for v := d + 1; v < n; v++ {
		chosen = chosen[:0]
		for len(chosen) < d {
			if t := targets[r.Intn(len(targets))]; !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			b.AddEdge(t, v, w(r))
			targets = append(targets, t, v)
		}
	}
	return b.MustBuild()
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within Euclidean distance radius; edge weights can optionally be the
// Euclidean distances (euclid=true) or drawn from w. A cell grid keeps
// generation near-linear for the radii used in experiments.
func RandomGeometric(n int, radius float64, euclid bool, w WeightFn, seed uint64) *Graph {
	r := xrand.Split(seed, 0x726767) // "rgg"
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i], ys[i] = r.Float64(), r.Float64()
	}
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	cellOf := func(i int) (int, int) {
		cx, cy := int(xs[i]*float64(cells)), int(ys[i]*float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	bucket := make(map[[2]int][]int)
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		bucket[[2]int{cx, cy}] = append(bucket[[2]int{cx, cy}], i)
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for i := 0; i < n; i++ {
		cx, cy := cellOf(i)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range bucket[[2]int{cx + dx, cy + dy}] {
					if j <= i {
						continue
					}
					ddx, ddy := xs[i]-xs[j], ys[i]-ys[j]
					if d2 := ddx*ddx + ddy*ddy; d2 <= r2 {
						wt := w(r)
						if euclid {
							wt = math.Sqrt(d2)
							if wt == 0 {
								wt = math.SmallestNonzeroFloat64
							}
						}
						b.AddEdge(i, j, wt)
					}
				}
			}
		}
	}
	return b.MustBuild()
}

// Connectify returns g if it is connected; otherwise it returns a copy with
// one minimum-footprint bridging edge per extra component (connecting an
// arbitrary vertex of each component to component 0), each of weight bridgeW.
// Experiments use it so that stretch is defined for all vertex pairs.
func Connectify(g *Graph, bridgeW float64) *Graph {
	label, count := g.Components()
	if count <= 1 {
		return g
	}
	rep := make([]int, count)
	for i := range rep {
		rep[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		if rep[label[v]] == -1 {
			rep[label[v]] = v
		}
	}
	edges := append(append([]Edge(nil), g.Edges()...), make([]Edge, 0, count-1)...)
	for c := 1; c < count; c++ {
		edges = append(edges, Edge{U: rep[0], V: rep[c], W: bridgeW})
	}
	return MustNew(g.N(), edges)
}
