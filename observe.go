package mpcspanner

import (
	"time"

	"mpcspanner/internal/obs"
	"mpcspanner/internal/par"
)

// Metrics is a process-local registry of counters, gauges and fixed-bucket
// histograms. One registry may be shared across any number of Build and
// Serve calls (series aggregate, Prometheus-style); expose it over HTTP with
// Metrics.Handler, or dump it with WriteProm / WriteJSON. All mutation is
// lock-free and allocation-free, so instrumented hot paths stay 0 allocs/op.
type Metrics = obs.Registry

// MetricsSnapshot is a consistent point-in-time copy of a Metrics registry,
// sorted by series name so its encodings are byte-identical for equal state.
type MetricsSnapshot = obs.Snapshot

// HistogramSnapshot is one histogram inside a MetricsSnapshot; its Quantile
// method interpolates p50/p95/p99-style summaries from the bucket counts.
type HistogramSnapshot = obs.HistogramSnap

// NewMetrics returns an empty registry. Passing it to WithMetrics
// instruments the call; a nil *Metrics (or omitting the option) runs the
// exact same code paths uninstrumented and bit-identically.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Tracer records named phase spans (B1 coin flips, grow iterations, removal
// sweeps, Step C contractions, Phase 2) with durations and integer
// attributes. Retention is capped; Tracer.Dropped reports overflow.
type Tracer = obs.Tracer

// Span is one recorded phase span.
type Span = obs.Span

// SpanSummary aggregates the spans of one name (count, total/min/max
// duration), as returned by Tracer.Summary.
type SpanSummary = obs.SpanSummary

// NewTracer returns an empty tracer for WithTracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// WithMetrics instruments the call on r: Build fills the mpc_* / spanner_* /
// par_* series (AlgoCongestedClique fills spanner_*, since it runs the
// engine's grow loop), Serve additionally fills the oracle_* serving
// series. nil restores the default (uninstrumented); either way results
// are bit-identical — metrics observe the computation without steering it.
func WithMetrics(r *Metrics) Option {
	return func(c *config) { c.metrics = r; c.mark("Metrics") }
}

// WithTracer records the construction's phase spans into tr. The local
// engine families (AlgoGeneral, AlgoClusterMerge, AlgoSqrtK, AlgoBaswanaSen)
// and AlgoCongestedClique, which runs the engine's grow loop, emit real
// timed spans from inside the engine; the simulated planes (AlgoMPC,
// AlgoUnweighted) and Serve's §7 pipeline mirror their progress
// checkpoints as zero-duration marker spans. nil restores the default (no
// tracing). Build-side only: rejected by Serve's WithExact mode, where no
// construction runs.
func WithTracer(tr *Tracer) Option {
	return func(c *config) { c.tracer = tr; c.mark("Tracer") }
}

// hookPoolMetrics attaches the process-global worker-pool series (par_*) to
// cfg.metrics. The hook is last-writer-wins across the process, so it is
// only installed for instrumented calls — a plain Build must never detach a
// concurrent instrumented one.
func (c *config) hookPoolMetrics() {
	if c.metrics != nil {
		par.SetMetrics(c.metrics)
	}
}

// traceProgress mirrors every progress checkpoint of a simulated-plane
// construction into tr as a zero-duration "checkpoint.<stage>" span, then
// forwards the event to next. Used where the construction has no native
// span instrumentation; returns next unchanged when tr is nil.
func traceProgress(tr *Tracer, next func(ProgressEvent)) func(ProgressEvent) {
	if tr == nil {
		return next
	}
	return func(ev ProgressEvent) {
		tr.Record(Span{
			Name:  "checkpoint." + ev.Stage,
			Start: time.Now(),
			Attrs: []obs.Attr{
				{Key: "iteration", Val: int64(ev.Iteration)},
				{Key: "alive_edges", Val: int64(ev.AliveEdges)},
				{Key: "spanner_edges", Val: int64(ev.SpannerEdges)},
				{Key: "rounds", Val: int64(ev.Rounds)},
			},
		})
		if next != nil {
			next(ev)
		}
	}
}
