package mpcspanner

import (
	"context"

	"mpcspanner/internal/artifact"
	"mpcspanner/internal/cclique"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/mpc"
	"mpcspanner/internal/par"
	"mpcspanner/internal/spanner"
)

// Option configures Build and Serve. Options are applied in order and
// validated together when the call starts; an invalid combination returns an
// error satisfying errors.Is(err, ErrInvalidOption) whose *OptionError names
// the offending field. Later options override earlier ones (last write
// wins); see DESIGN.md §8 for the precedence and default table.
type Option func(*config)

// config is the merged option state of one Build or Serve call.
type config struct {
	algo     Algorithm
	k, t     int
	gamma    float64
	seed     uint64
	workers  int
	reps     int
	radius   bool
	progress func(ProgressEvent)
	metrics  *Metrics
	tracer   *Tracer

	// Serving-side knobs (Serve only).
	exact   bool
	maxRows int
	art     *Artifact

	// Out-of-core knob (MPC-plane builds only).
	memBudget int64

	// set tracks which options were supplied, so each entry point can
	// reject the ones it does not accept instead of silently ignoring them.
	set map[string]bool
}

func (c *config) mark(field string) {
	if c.set == nil {
		c.set = make(map[string]bool)
	}
	c.set[field] = true
}

// WithAlgorithm selects the construction family (default AlgoGeneral).
// Accepted by Build only.
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) { c.algo = a; c.mark("Algorithm") }
}

// WithK sets the stretch parameter k ≥ 1. Required by Build; not accepted
// by Serve (the §7 pipeline fixes k = ⌈log₂ n⌉).
func WithK(k int) Option {
	return func(c *config) { c.k = k; c.mark("K") }
}

// WithT sets the epoch length t ≥ 1 of the general/MPC/Congested-Clique
// families (default: the paper's per-family sweet spot — ⌈log₂ k⌉ for
// Build, ⌈log₂ log₂ n⌉ for Serve's §7 pipeline). Ignored by the other
// algorithms, whose round structure has no epoch length.
func WithT(t int) Option {
	return func(c *config) { c.t = t; c.mark("T") }
}

// WithGamma sets the memory exponent γ of the simulated machines (AlgoMPC,
// AlgoUnweighted, and Serve's build phase; default 0.5). The build's
// fingerprint records the γ it ran with, defaulted or not.
func WithGamma(gamma float64) Option {
	return func(c *config) { c.gamma = gamma; c.mark("Gamma") }
}

// WithSeed pins all randomness: equal seeds give bit-identical results at
// every worker count (default 0).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.seed = seed; c.mark("Seed") }
}

// WithWorkers sizes the real goroutine pool: 0 selects GOMAXPROCS (the
// default), 1 forces the serial path, larger values pin the pool. Negative
// values are rejected. Results never depend on the worker count, and
// neither does a saved artifact: its fingerprint records Workers as 0.
func WithWorkers(w int) Option {
	return func(c *config) { c.workers = w; c.mark("Workers") }
}

// WithRepetitions runs that many independent builds (derived seeds) and
// keeps the smallest spanner — the w.h.p. mechanism of Theorem 8.1 /
// Section 6. Supported by the local engine families only (AlgoGeneral,
// AlgoClusterMerge, AlgoSqrtK, AlgoBaswanaSen).
func WithRepetitions(r int) Option {
	return func(c *config) { c.reps = r; c.mark("Repetitions") }
}

// WithMeasureRadius additionally reports final cluster-tree radii in
// BuildResult.Stats.Radius (local engine families only).
func WithMeasureRadius() Option {
	return func(c *config) { c.radius = true; c.mark("MeasureRadius") }
}

// WithProgress installs a synchronous progress callback. Events arrive from
// the construction loop's cancellation checkpoints (one per grow iteration /
// contraction / phase); the callback must be fast, must not call back into
// the library, and must be safe for concurrent use when WithRepetitions is
// in effect. Canceling the build's context from inside the callback stops
// the build at the next checkpoint.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(c *config) { c.progress = fn; c.mark("Progress") }
}

// WithExact makes Serve answer distances on the supplied graph as given,
// skipping the §7 approximation pipeline. Use it to serve exact distances,
// or to serve a spanner you already built (e.g. Build(...).Spanner()).
// Accepted by Serve only.
func WithExact() Option {
	return func(c *config) { c.exact = true; c.mark("Exact") }
}

// WithCacheRows sets the serving cache's row budget (one row = n float64s;
// 0 = default min(1024, max(1, 64 MiB / (8·n))), so at most 64 MiB of rows
// once n > 8 192). Accepted by Serve only.
func WithCacheRows(n int) Option {
	return func(c *config) { c.maxRows = n; c.mark("CacheRows") }
}

// WithMemoryBudget caps the bytes the simulated MPC cluster's tuple store
// may keep resident in the host process: contents past the budget spill to
// checksummed run files (internal/extmem) and the global sorts run as
// external merge sorts, so builds far larger than RAM complete under a
// fixed footprint. The constructed spanner and the simulated round bill are
// bit-identical to an unbudgeted build at every worker count — the budget
// constrains the host process, not the simulated machines (their memory
// exponent stays WithGamma).
//
// Accepted where the MPC simulation is the construction plane: Build with
// WithAlgorithm(AlgoMPC), and Serve's default §7 pipeline. Rejected by the
// other Build families, WithExact, WithArtifact, and CliqueAPSP (nothing
// spills there). bytes must be positive.
func WithMemoryBudget(bytes int64) Option {
	return func(c *config) { c.memBudget = bytes; c.mark("MemoryBudget") }
}

// WithArtifact serves a previously saved artifact instead of running any
// pipeline: pass a nil graph to Serve and the session answers distance
// queries on the artifact's frozen graph, serving its precomputed rows (if
// any) ahead of the cache. The session's provenance (Session.Fingerprint,
// and the edge ids and source shape Session.Save records) is the
// artifact's. The artifact must stay open for the session's
// lifetime — for mmapped artifacts the session reads the mapping directly.
// Only the cache and observability options (WithCacheRows, WithWorkers,
// WithMetrics) combine with it. Accepted by Serve only.
func WithArtifact(a *Artifact) Option {
	return func(c *config) { c.art = a; c.mark("Artifact") }
}

// buildOnly / serveOnly / cliqueAPSPForeign name the options each entry
// point rejects.
var (
	buildOnly = []string{"Algorithm", "K", "Repetitions", "MeasureRadius"}
	serveOnly = []string{"Exact", "CacheRows", "Artifact"}
	// The Corollary 1.5 pipeline fixes its structural parameters, so only
	// WithSeed / WithWorkers / WithProgress apply.
	cliqueAPSPForeign = []string{"Algorithm", "K", "T", "Gamma", "Repetitions",
		"MeasureRadius", "Exact", "CacheRows", "Metrics", "Tracer",
		"Artifact", "MemoryBudget"}
)

// newConfig folds opts and rejects the ones foreign to the calling entry
// point.
func newConfig(entry string, reject []string, opts []Option) (*config, error) {
	c := &config{}
	for _, opt := range opts {
		opt(c)
	}
	for _, field := range reject {
		if c.set[field] {
			return nil, &OptionError{Field: "mpcspanner: " + field, Value: "(set)",
				Reason: "not accepted by " + entry}
		}
	}
	if err := par.CheckWorkers("mpcspanner: Workers", c.workers); err != nil {
		return nil, err
	}
	if c.t < 0 {
		return nil, &OptionError{Field: "mpcspanner: T", Value: c.t,
			Reason: "must be >= 1 (0 selects the default)"}
	}
	if !c.set["Gamma"] {
		c.gamma = 0.5 // the one γ default, for every build and fingerprint
	} else if c.gamma <= 0 || c.gamma > 1 {
		return nil, &OptionError{Field: "mpcspanner: Gamma", Value: c.gamma,
			Reason: "must lie in (0, 1]"}
	}
	if c.maxRows < 0 {
		return nil, &OptionError{Field: "mpcspanner: CacheRows", Value: c.maxRows,
			Reason: "must be >= 0 (0 selects the default)"}
	}
	if c.set["MemoryBudget"] && c.memBudget <= 0 {
		return nil, &OptionError{Field: "mpcspanner: MemoryBudget", Value: c.memBudget,
			Reason: "byte budget must be positive (omit the option to keep everything resident)"}
	}
	if c.set["Artifact"] && c.art == nil {
		return nil, &OptionError{Field: "mpcspanner: Artifact", Value: nil,
			Reason: "artifact must be non-nil"}
	}
	return c, nil
}

// BuildResult is the unified outcome of Build: the spanner edge set plus the
// per-family artifacts of the algorithm that produced it.
type BuildResult struct {
	// Algorithm is the family that ran (after defaulting).
	Algorithm Algorithm

	// EdgeIDs is the spanner: sorted unique indexes into the input graph's
	// edge list.
	EdgeIDs []int

	// Stats carries the engine's structural costs for the local families
	// and AlgoCongestedClique; it is zero for AlgoUnweighted and AlgoMPC
	// (see Unweighted and MPC below).
	Stats SpannerStats

	// Unweighted holds the Appendix B statistics when Algorithm is
	// AlgoUnweighted; nil otherwise.
	Unweighted *UnweightedStats

	// MPC holds the simulated-cluster cost profile (rounds, memory, sorts)
	// when Algorithm is AlgoMPC; nil otherwise.
	MPC *MPCResult

	// CC holds the clique round bill and WHP selection statistics when
	// Algorithm is AlgoCongestedClique; nil otherwise.
	CC *CCSpannerResult

	g  *Graph
	fp artifact.Fingerprint
}

// Size returns the number of spanner edges.
func (r *BuildResult) Size() int { return len(r.EdgeIDs) }

// Spanner materializes the spanner as a graph on the input's vertex set.
func (r *BuildResult) Spanner() *Graph { return r.g.Subgraph(r.EdgeIDs) }

// Verify checks that the result is a valid spanner of its input graph
// within maxStretch and returns the measured stretch report. It works for
// every algorithm family: it needs only the edge set, not the per-family
// statistics.
func (r *BuildResult) Verify(maxStretch float64) (dist.StretchReport, error) {
	return spanner.Verify(r.g, &spanner.Result{EdgeIDs: r.EdgeIDs, Stats: r.Stats}, maxStretch)
}

// Build constructs a spanner of g under ctx. It is the single entry point
// for every construction family of the paper — select one with
// WithAlgorithm, parameterize it with the other options:
//
//	res, err := mpcspanner.Build(ctx, g,
//	    mpcspanner.WithK(8),
//	    mpcspanner.WithSeed(1),
//	    mpcspanner.WithProgress(func(ev mpcspanner.ProgressEvent) { ... }))
//
// Cancellation is cooperative: the construction loops checkpoint ctx once
// per grow iteration (and per contraction / phase transition), so a
// canceled build returns within one iteration's work, with every pool
// goroutine joined. The returned error then satisfies both
// errors.Is(err, ErrCanceled) and errors.Is(err, ctx.Err()). Equal seeds
// give bit-identical spanners at every worker count, canceled or not —
// checkpoints never change what is computed.
//
// Option validation happens before any work: a rejected value returns an
// error satisfying errors.Is(err, ErrInvalidOption) carrying a *OptionError.
func Build(ctx context.Context, g *Graph, opts ...Option) (*BuildResult, error) {
	cfg, err := newConfig("Build", serveOnly, opts)
	if err != nil {
		return nil, err
	}
	if cfg.k < 1 {
		return nil, &OptionError{Field: "mpcspanner: K", Value: cfg.k,
			Reason: "stretch parameter is required and must be >= 1 (use WithK)"}
	}
	if cfg.reps < 0 {
		return nil, &OptionError{Field: "mpcspanner: Repetitions", Value: cfg.reps,
			Reason: "must be >= 0 (0 and 1 both mean a single run)"}
	}

	cfg.hookPoolMetrics()
	engineOpts := spanner.Options{
		Seed:          cfg.seed,
		Repetitions:   cfg.reps,
		Workers:       cfg.workers,
		MeasureRadius: cfg.radius,
		Progress:      cfg.progress,
		Metrics:       cfg.metrics,
		Tracer:        cfg.tracer,
	}
	algo := cfg.algo
	if algo == "" {
		algo = AlgoGeneral
	}
	switch algo {
	case AlgoUnweighted, AlgoMPC, AlgoCongestedClique:
		if cfg.reps > 1 {
			return nil, &OptionError{Field: "mpcspanner: Repetitions", Value: cfg.reps,
				Reason: "only the local engine algorithms support repetitions"}
		}
		if cfg.radius {
			return nil, &OptionError{Field: "mpcspanner: MeasureRadius", Value: true,
				Reason: "only the local engine algorithms report cluster-tree radii"}
		}
	}
	if cfg.set["MemoryBudget"] && algo != AlgoMPC {
		return nil, &OptionError{Field: "mpcspanner: MemoryBudget", Value: cfg.memBudget,
			Reason: "only the MPC simulation spills (use WithAlgorithm(AlgoMPC))"}
	}
	if algo == AlgoUnweighted && cfg.set["Gamma"] && cfg.gamma >= 1 {
		// Appendix B needs γ strictly below 1; catch it with the other
		// option checks instead of deep inside the construction.
		return nil, &OptionError{Field: "mpcspanner: Gamma", Value: cfg.gamma,
			Reason: "must lie in (0, 1) for AlgoUnweighted"}
	}

	// The engine families differ only in which constructor runs; every
	// family funnels through the common tail below, which stamps the
	// determinism fingerprint. fp records the structural parameters the
	// family actually ran with (after defaulting), so a saved artifact
	// identifies the build exactly; t is the one epoch-length default of
	// the families that have one. It leaves out the pool size, which no
	// result depends on, so one build saves one checksum at any -workers.
	t := cfg.t
	if t <= 0 {
		t = spanner.DefaultT(cfg.k)
	}
	fp := artifact.Fingerprint{Algorithm: string(algo), Seed: cfg.seed, K: cfg.k}
	var out *BuildResult
	var engineResult *spanner.Result
	switch algo {
	case AlgoGeneral:
		fp.T = t
		engineResult, err = spanner.GeneralCtx(ctx, g, cfg.k, t, engineOpts)
	case AlgoClusterMerge:
		engineResult, err = spanner.ClusterMergeCtx(ctx, g, cfg.k, engineOpts)
	case AlgoSqrtK:
		engineResult, err = spanner.SqrtKCtx(ctx, g, cfg.k, engineOpts)
	case AlgoBaswanaSen:
		engineResult, err = spanner.BaswanaSenCtx(ctx, g, cfg.k, engineOpts)
	case AlgoUnweighted:
		fp.Gamma = cfg.gamma
		r, err := spanner.UnweightedCtx(ctx, g, cfg.k, spanner.UnweightedOptions{
			Seed: cfg.seed, Gamma: cfg.gamma, Workers: cfg.workers,
			Progress: traceProgress(cfg.tracer, cfg.progress),
		})
		if err != nil {
			return nil, err
		}
		out = &BuildResult{Algorithm: algo, EdgeIDs: r.EdgeIDs, Unweighted: &r.Stats, g: g}
	case AlgoMPC:
		fp.T, fp.Gamma = t, cfg.gamma
		r, err := mpc.BuildSpannerCtx(ctx, g, cfg.k, t, cfg.seed, mpc.Options{
			Gamma: cfg.gamma, Workers: cfg.workers,
			Progress:     traceProgress(cfg.tracer, cfg.progress),
			Metrics:      cfg.metrics,
			MemoryBudget: cfg.memBudget,
		})
		if err != nil {
			return nil, err
		}
		out = &BuildResult{Algorithm: algo, EdgeIDs: r.EdgeIDs, MPC: r, g: g}
	case AlgoCongestedClique:
		fp.T = t
		r, err := cclique.BuildSpannerCtx(ctx, g, cfg.k, t, engineOpts)
		if err != nil {
			return nil, err
		}
		out = &BuildResult{Algorithm: algo, EdgeIDs: r.EdgeIDs, Stats: r.Stats, CC: r, g: g}
	default:
		return nil, &OptionError{Field: "mpcspanner: Algorithm", Value: string(cfg.algo),
			Reason: "unknown algorithm"}
	}
	if out == nil {
		if err != nil {
			return nil, err
		}
		out = &BuildResult{Algorithm: algo, EdgeIDs: engineResult.EdgeIDs, Stats: engineResult.Stats, g: g}
	}
	out.fp = fp
	return out, nil
}
