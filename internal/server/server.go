// Package server is the network face of the paper's §7 build-once/query-many
// regime: an HTTP daemon over the facade's serving Session that answers
// batched distance queries (POST /v1/query decodes straight into the
// deterministic QueryMany fan-out), enforces per-request deadlines through
// the library's cooperative-cancellation plumbing, and — following the
// stateless-replica/shared-cache pattern of production distance services —
// degrades instead of collapsing under overload via admission control:
//
//   - A bounded in-flight semaphore caps the batches allowed into the oracle
//     at once. The ceiling is derived from the oracle's row budget (see
//     cmd/oracled), so admitted load can never thrash the LRU it depends on.
//   - Requests that cannot acquire a slot wait at most Config.QueueWait, then
//     are shed with 429 + Retry-After. Shedding is the only response to
//     overload: a saturated daemon answers every request promptly, correctly
//     or with a retryable status, never with a hang or a 5xx.
//
// Errors classify through the internal/core taxonomy: option/vertex
// rejections → 400, client-deadline expiry → 504, cancellation (client gone,
// server draining) → 503, shed → 429. The body of every non-2xx response is
// a typed JSON error (code/field/reason), so clients never parse prose.
//
// Observability rides the same obs registry as the build and the oracle:
// server_* admission series next to oracle_* cache series on one /metrics
// endpoint, plus /healthz for load-balancer checks and /debug/pprof.
// Replicas are stateless (the graph is frozen at startup), so horizontal
// scale is "run more of them behind a proxy" — see deploy/.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/oracle"
)

// Backend answers batched distance queries under a context. The facade's
// *mpcspanner.Session satisfies it; tests substitute gated or slowed
// implementations to drive the admission and classification paths.
type Backend interface {
	QueryMany(ctx context.Context, pairs []oracle.Pair) ([]float64, error)
}

// Config configures New. Backend is required; everything else defaults.
type Config struct {
	// Backend answers the queries (typically a *mpcspanner.Session).
	Backend Backend

	// Graph is the served graph, reported by /v1/info so load generators can
	// size workloads without out-of-band knowledge. Optional.
	Graph *graph.Graph

	// Metrics is the registry the server_* series land on — share it with
	// the session's WithMetrics so /metrics tells the whole story. A nil
	// registry is replaced by a private one (the handlers never run
	// uninstrumented; a daemon without /metrics is pointless).
	Metrics *obs.Registry

	// MaxInflight caps the batches inside the backend at once; requests past
	// it queue, then shed. <= 0 selects 64. Derive it from the serving
	// cache's row budget (Session.CacheRows) so admitted concurrency cannot
	// outrun cache residency — cmd/oracled uses budget/4.
	MaxInflight int

	// QueueWait is the longest a request may wait for an in-flight slot
	// before being shed with 429. <= 0 selects 100ms.
	QueueWait time.Duration

	// MaxPairs caps the pairs of one /v1/query batch. <= 0 selects 65536.
	MaxPairs int

	// MaxTimeout caps the per-request deadline a client may ask for with
	// timeout_ms, bounding worst-case slot occupancy. <= 0 selects 30s.
	MaxTimeout time.Duration

	// Artifact, when non-nil, is reported by /v1/info so clients can verify
	// which saved build this replica serves. Optional.
	Artifact *ArtifactInfo

	// SSSP, when non-nil, is reported by /v1/info: the backend session's
	// row-fill engine and Δ (cmd/oracled passes Session.SSSP). Optional.
	SSSP *SSSPInfo

	// Memory, when non-nil, is reported by /v1/info: the out-of-core
	// profile of the replica's in-process budgeted build (cmd/oracled
	// fills it from Result.MPC when -memory was set). Optional.
	Memory *MemoryInfo
}

// Server is one stateless oracled replica: an http.Handler plus the drain
// switch its lifecycle runs on. Create with New; it is safe for concurrent
// use.
type Server struct {
	cfg      Config
	sem      chan struct{}
	draining atomic.Bool

	requests    *obs.Counter
	shed        *obs.Counter
	inflight    *obs.Gauge
	queueDepth  *obs.Gauge
	drainingG   *obs.Gauge
	requestSecs *obs.Histogram
	queueSecs   *obs.Histogram
	batchPairs  *obs.Histogram
}

// New returns a server over cfg, registering the server_* series eagerly so
// /metrics exposes them (at zero) from the first scrape — the CI smoke job
// greps for presence, not movement.
func New(cfg Config) *Server {
	if cfg.Backend == nil {
		panic("server: Config.Backend is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 100 * time.Millisecond
	}
	if cfg.MaxPairs <= 0 {
		cfg.MaxPairs = 65536
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	reg := cfg.Metrics
	return &Server{
		cfg:         cfg,
		sem:         make(chan struct{}, cfg.MaxInflight),
		requests:    reg.Counter("server_requests_total"),
		shed:        reg.Counter("server_shed_total"),
		inflight:    reg.Gauge("server_inflight"),
		queueDepth:  reg.Gauge("server_queue_depth"),
		drainingG:   reg.Gauge("server_draining"),
		requestSecs: reg.Histogram("server_request_seconds", obs.LatencyBuckets),
		queueSecs:   reg.Histogram("server_queue_wait_seconds", obs.LatencyBuckets),
		batchPairs:  reg.Histogram("server_batch_pairs", obs.SizeBuckets),
	}
}

// Handler returns the replica's full endpoint surface:
//
//	POST /v1/query    batched distance queries
//	GET  /v1/info     served-graph shape and admission limits
//	GET  /healthz     200 serving / 503 draining (load-balancer check)
//	GET  /metrics     the shared obs registry, Prometheus text
//	     /debug/pprof profiling
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/info", s.handleInfo)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.cfg.Metrics.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// BeginDrain flips the replica into draining: /healthz answers 503 so the
// load balancer stops routing here, and new /v1/query requests are rejected
// with a retryable 503 while in-flight ones run to completion. Run calls it
// when its context ends; it is idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.drainingG.Set(1)
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Run serves on l until ctx is done (cmd/oracled wires SIGTERM/SIGINT into
// ctx via signal.NotifyContext), then drains gracefully: the listener
// closes, new requests are rejected, and in-flight requests get up to
// drainTimeout to finish before remaining connections are torn down.
// Returns nil on a clean drain.
func (s *Server) Run(ctx context.Context, l net.Listener, drainTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 15 * time.Second
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		// Serve failed before ctx ended (bad listener, port stolen).
		return err
	case <-ctx.Done():
	}
	s.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(sctx)
	<-errc // always http.ErrServerClosed after Shutdown; drained for hygiene
	return err
}

// handleQuery is POST /v1/query: admission, decode, deadline, fan-out,
// classification — in that order, so an overloaded replica sheds before it
// spends cycles parsing bodies it cannot serve.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errorDetail{Code: "method_not_allowed",
			Reason: "use POST"})
		return
	}
	s.requests.Inc()
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errorDetail{Code: "draining",
			Reason: "replica is draining; retry another replica"})
		return
	}

	// Admission: acquire an in-flight slot or shed. The queue-depth gauge
	// brackets the wait so /metrics shows queued requests live.
	release, ok := s.admit(r.Context())
	if !ok {
		s.shed.Inc()
		w.Header().Set("Retry-After", s.retryAfter())
		writeError(w, http.StatusTooManyRequests, errorDetail{Code: "shed",
			Reason: fmt.Sprintf("no in-flight slot within %v; retry after backoff", s.cfg.QueueWait)})
		return
	}
	defer release()

	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxPairs)*48+4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, errorDetail{Code: "bad_request",
			Reason: "malformed JSON body: " + err.Error()})
		return
	}
	if len(req.Pairs) > s.cfg.MaxPairs {
		writeError(w, http.StatusBadRequest, errorDetail{Code: "invalid_option",
			Field: "pairs", Reason: fmt.Sprintf("batch of %d exceeds the %d-pair ceiling", len(req.Pairs), s.cfg.MaxPairs)})
		return
	}
	if req.TimeoutMS < 0 {
		// Classified through the same taxonomy the library uses, so the
		// wire behavior and the in-process behavior agree on what an invalid
		// option looks like.
		writeTypedError(w, &core.OptionError{Field: "server: timeout_ms", Value: req.TimeoutMS,
			Reason: "must be >= 0 (0 means no per-request deadline)"})
		return
	}

	// Per-request deadline: the client's budget rides the context into
	// QueryMany, whose workers checkpoint it between row computations.
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		d := time.Duration(req.TimeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	pairs := make([]oracle.Pair, len(req.Pairs))
	for i, p := range req.Pairs {
		pairs[i] = oracle.Pair{U: p.U, V: p.V}
	}
	s.batchPairs.Observe(float64(len(pairs)))

	start := time.Now()
	dists, err := s.cfg.Backend.QueryMany(ctx, pairs)
	s.requestSecs.Observe(time.Since(start).Seconds())
	if err != nil {
		writeTypedError(w, err)
		return
	}
	resp := queryResponse{Distances: make([]jsonFloat, len(dists))}
	for i, d := range dists {
		resp.Distances[i] = jsonFloat(d)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// admit tries to take an in-flight slot, waiting at most QueueWait. The
// returned release func must be called exactly once when ok.
func (s *Server) admit(ctx context.Context) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}: // fast path: a slot is free
	default:
		s.queueDepth.Inc()
		waitStart := time.Now()
		timer := time.NewTimer(s.cfg.QueueWait)
		defer timer.Stop()
		select {
		case s.sem <- struct{}{}:
			s.queueSecs.Observe(time.Since(waitStart).Seconds())
			s.queueDepth.Dec()
		case <-timer.C:
			s.queueSecs.Observe(time.Since(waitStart).Seconds())
			s.queueDepth.Dec()
			return nil, false
		case <-ctx.Done():
			// The client gave up while queued; its slot demand leaves with it.
			s.queueSecs.Observe(time.Since(waitStart).Seconds())
			s.queueDepth.Dec()
			return nil, false
		}
	}
	s.inflight.Inc()
	return func() {
		<-s.sem
		s.inflight.Dec()
	}, true
}

// retryAfter renders the Retry-After header: the queue-wait ceiling rounded
// up to whole seconds (minimum 1) — by then at least one full admission
// window has passed, so a retry sees fresh capacity or sheds again cheaply.
func (s *Server) retryAfter() string {
	secs := int(s.cfg.QueueWait / time.Second)
	if time.Duration(secs)*time.Second < s.cfg.QueueWait || secs < 1 {
		secs++
	}
	return strconv.Itoa(secs)
}

// handleInfo is GET /v1/info: the served graph's shape plus the admission
// limits, enough for a load generator to size a workload.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := Info{MaxInflight: s.cfg.MaxInflight, MaxPairs: s.cfg.MaxPairs,
		Artifact: s.cfg.Artifact, SSSP: s.cfg.SSSP, Memory: s.cfg.Memory}
	if s.cfg.Graph != nil {
		info.N = s.cfg.Graph.N()
		info.M = s.cfg.Graph.M()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(info)
}

// handleHealthz is GET /healthz: 200 "ok" while serving, 503 "draining"
// once BeginDrain ran — the signal a load balancer keys ejection on.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// writeTypedError maps an error through the internal/core taxonomy onto a
// status code and typed JSON body:
//
//	ErrInvalidOption (bad vertex, bad option) → 400, code "invalid_option"
//	ErrCanceled via context.DeadlineExceeded  → 504, code "deadline_exceeded"
//	ErrCanceled otherwise (client gone/drain) → 503, code "canceled"
//	anything else                             → 500, code "internal"
func writeTypedError(w http.ResponseWriter, err error) {
	var oe *core.OptionError
	switch {
	case errors.As(err, &oe):
		writeError(w, http.StatusBadRequest, errorDetail{Code: "invalid_option",
			Field: oe.Field, Reason: oe.Reason})
	case errors.Is(err, core.ErrCanceled) && errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, errorDetail{Code: "deadline_exceeded",
			Reason: err.Error()})
	case errors.Is(err, core.ErrCanceled):
		writeError(w, http.StatusServiceUnavailable, errorDetail{Code: "canceled",
			Reason: err.Error()})
	default:
		writeError(w, http.StatusInternalServerError, errorDetail{Code: "internal",
			Reason: err.Error()})
	}
}

// writeError emits the typed JSON error body every non-2xx response carries.
func writeError(w http.ResponseWriter, status int, d errorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorBody{Error: d})
}
