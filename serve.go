package mpcspanner

import (
	"context"

	"mpcspanner/internal/apsp"
	"mpcspanner/internal/artifact"
	"mpcspanner/internal/core"
	"mpcspanner/internal/oracle"
)

// Session is the serving half of the v1 surface: a concurrency-safe cached
// distance service over a frozen graph — the paper's §7 regime where a
// spanner is built once and then answers many queries locally. Create one
// with Serve; every query method takes a context and checkpoints it between
// row computations, so a slow batch can be timed out or canceled without
// leaking goroutines.
type Session struct {
	input  *Graph
	oracle *oracle.Oracle
	apsp   *APSPResult // nil when serving WithExact or WithArtifact

	// saved is what Save writes before it adds the warm rows: the served
	// graph and its one provenance value (fingerprint, spanner edge ids,
	// source shape), set once by each Serve mode. art and frozen are set
	// only for sessions loaded with WithArtifact.
	saved  artifact.Payload
	art    *Artifact
	frozen *artifact.Rows
}

// Serve builds a distance-serving session over g under ctx.
//
// By default it runs the full Corollary 1.4 pipeline — a near-linear spanner
// with k = ⌈log₂ n⌉ built on the simulated MPC cluster (honoring WithT,
// WithGamma, WithSeed, WithWorkers, WithProgress, WithMemoryBudget),
// collected onto one machine and wrapped in the cached oracle — so queries
// answer with the certified O(log^{1+o(1)} n) approximation. The session
// records that build exactly as Build(WithAlgorithm(AlgoMPC)) at
// k = ⌈log₂ n⌉ does (fingerprint "mpc", edge ids, source shape), so a fresh
// session's Save writes the file the BuildResult's Save writes.
// With WithExact the pipeline is skipped and distances are served on g as
// given; use that for exact serving, or to serve a spanner built separately
// with Build (the session then records it as an "exact" input; serve the
// BuildResult's saved artifact WithArtifact to keep the build's identity):
//
//	res, _ := mpcspanner.Build(ctx, g, mpcspanner.WithK(8))
//	s, _ := mpcspanner.Serve(ctx, res.Spanner(), mpcspanner.WithExact())
//	d, err := s.Query(ctx, 0, 99)
//
// WithCacheRows sizes the serving cache. Cancellation and
// error classification follow the Build contract (ErrCanceled /
// ErrInvalidOption via errors.Is).
func Serve(ctx context.Context, g *Graph, opts ...Option) (*Session, error) {
	cfg, err := newConfig("Serve", buildOnly, opts)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.art != nil:
		// Artifact serving runs no pipeline either; only the cache and
		// observability knobs combine with it, and the graph argument must
		// be nil — the artifact is the graph.
		if g != nil {
			return nil, &OptionError{Field: "mpcspanner: Artifact", Value: "(set)",
				Reason: "pass a nil graph when serving from an artifact"}
		}
		for _, field := range []string{"Seed", "T", "Gamma", "Progress", "Tracer", "Exact", "MemoryBudget"} {
			if cfg.set[field] {
				return nil, &OptionError{Field: "mpcspanner: " + field, Value: "(set)",
					Reason: "not accepted together with WithArtifact (no build runs)"}
			}
		}
		g = cfg.art.Graph()
	case g == nil:
		return nil, &OptionError{Field: "mpcspanner: Graph", Value: nil,
			Reason: "Serve needs a graph (or WithArtifact)"}
	case cfg.exact:
		// Exact mode runs no pipeline, so the pipeline-only options would
		// be dead weight; reject them like every other foreign option.
		// WithMetrics stays accepted: it instruments the serving oracle.
		for _, field := range []string{"Seed", "T", "Gamma", "Progress", "Tracer", "MemoryBudget"} {
			if cfg.set[field] {
				return nil, &OptionError{Field: "mpcspanner: " + field, Value: "(set)",
					Reason: "not accepted together with WithExact (no build runs)"}
			}
		}
	}
	if err := core.Check(ctx); err != nil {
		return nil, err
	}
	cfg.hookPoolMetrics()
	s := &Session{input: g, saved: artifact.Payload{Graph: g, SourceN: g.N(), SourceM: g.M(),
		Fingerprint: artifact.Fingerprint{Algorithm: "exact"}}}
	switch {
	case cfg.art != nil:
		// The artifact's own record, so save→load→save keeps it.
		s.saved.EdgeIDs, s.saved.Fingerprint = cfg.art.EdgeIDs(), cfg.art.Fingerprint()
		s.saved.SourceN, s.saved.SourceM = cfg.art.SourceShape()
		s.art, s.frozen = cfg.art, artifact.RowsOf(cfg.art)
	case !cfg.exact:
		res, err := apsp.ApproxCtx(ctx, g, apsp.Options{
			Seed: cfg.seed, T: cfg.t, Gamma: cfg.gamma,
			Workers: cfg.workers, Progress: traceProgress(cfg.tracer, cfg.progress),
			Metrics: cfg.metrics, MemoryBudget: cfg.memBudget,
		})
		if err != nil {
			return nil, err
		}
		s.apsp = res
		s.saved.Graph, s.saved.EdgeIDs = res.Spanner(), res.SpannerEdgeIDs
		s.saved.Fingerprint = artifact.Fingerprint{Algorithm: string(AlgoMPC), Seed: cfg.seed,
			K: res.K, T: res.T, Gamma: cfg.gamma}
	}
	// One oracle for every mode, fronted by the artifact's frozen rows when
	// it has any.
	oopts := oracle.Options{
		MaxRows: cfg.maxRows, Workers: cfg.workers, Metrics: cfg.metrics,
	}
	if s.frozen != nil {
		oopts.Frozen = s.frozen
	}
	s.oracle = oracle.New(s.saved.Graph, oopts)
	return s, nil
}

// Query returns the distance from u to v on the served graph (Inf when
// unreachable), caching the source row. Invalid vertices return
// ErrInvalidOption-classified errors; a done context returns an
// ErrCanceled-classified error at the next per-row checkpoint.
func (s *Session) Query(ctx context.Context, u, v int) (float64, error) {
	return s.oracle.Query(ctx, u, v)
}

// QueryMany answers a batch: out[i] is the distance for pairs[i]. Resident
// sources answer immediately; the remaining distinct sources fan out over
// the session's worker pool, which re-checks ctx before each source. The
// output is a pure function of (served graph, pairs) regardless of
// scheduling and cache state.
func (s *Session) QueryMany(ctx context.Context, pairs []Pair) ([]float64, error) {
	return s.oracle.QueryMany(ctx, pairs)
}

// Row returns the full distance row from src, computing and caching it on a
// miss. The returned slice is shared with the cache: callers must not mutate
// it.
func (s *Session) Row(ctx context.Context, src int) ([]float64, error) {
	return s.oracle.Row(ctx, src)
}

// Stats snapshots the serving cache's hit/miss/eviction counters.
func (s *Session) Stats() OracleStats { return s.oracle.Stats() }

// CacheRows returns the serving cache's effective row budget (the ceiling on
// resident distance rows across all shards, after defaulting). A serving
// daemon derives its admission-control in-flight ceiling from it, so the
// load it admits can never thrash the cache it depends on — see cmd/oracled.
func (s *Session) CacheRows() int { return s.oracle.MaxRows() }

// SSSPInfo reports the row-fill engine behind a session's cold queries, so
// fleet operators can confirm replicas agree (oracled advertises it on
// /v1/info).
type SSSPInfo struct {
	// Engine is the engine name: always "delta-stepping".
	Engine string
	// Delta is the auto-tuned bucket width (average edge weight / average
	// degree of the served graph).
	Delta float64
}

// SSSP reports the engine and bucket width behind the session's row fills.
func (s *Session) SSSP() SSSPInfo {
	e, d := s.oracle.SSSP()
	return SSSPInfo{Engine: e, Delta: d}
}

// Served returns the graph queries are answered on: the collected spanner,
// or the input graph under WithExact.
func (s *Session) Served() *Graph { return s.saved.Graph }

// Input returns the graph Serve was called with.
func (s *Session) Input() *Graph { return s.input }

// APSP returns the Corollary 1.4 build artifact behind the session (rounds,
// certified bound, spanner size), or nil when the session was created with
// WithExact.
func (s *Session) APSP() *APSPResult { return s.apsp }
