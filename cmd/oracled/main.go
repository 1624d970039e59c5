// Command oracled is the networked distance-serving daemon: the paper's §7
// build-once/query-many pipeline behind a wire. It has two subcommands:
//
//	oracled serve  — generate (or load) a graph, open a serving Session
//	                 over it (Serve's Corollary 1.4 pipeline unless -exact
//	                 or -load), and answer batched POST /v1/query requests with
//	                 admission control, /metrics, /healthz and /debug/pprof.
//	                 SIGTERM/SIGINT drains gracefully: in-flight requests
//	                 finish, new ones are rejected, then the process exits 0.
//
//	oracled load   — Zipf load generator: asks the daemon for its graph
//	                 shape via /v1/info, synthesizes the same skewed
//	                 workload cmd/oracle -synth uses, and fires it in
//	                 concurrent batches, reporting throughput, latency
//	                 quantiles, and how much the daemon shed.
//
// Examples:
//
//	oracled serve -addr :8080 -gen gnp -n 20000 -deg 10 -seed 1
//	oracled load  -addr http://localhost:8080 -q 100000 -zipf 1.2
//
// Replicas are stateless: equal -seed gives bit-identical spanners, so N
// replicas behind a proxy serve identical answers — see deploy/ for a
// docker-compose demo.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpcspanner"
	"mpcspanner/cmd/internal/cliutil"
	"mpcspanner/internal/artifact"
	"mpcspanner/internal/oracle"
	"mpcspanner/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oracled: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "serve":
		runServe(os.Args[2:])
	case "load":
		runLoad(os.Args[2:])
	case "convert":
		runConvert(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "oracled: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  oracled serve   [flags]  run a distance-serving replica (see oracled serve -h)
  oracled load    [flags]  fire a Zipf workload at a replica (see oracled load -h)
  oracled convert [flags]  stream a text edge list into a servable artifact (see oracled convert -h)
`)
}

// runConvert streams a text edge list (native or DIMACS) into a bare-graph
// artifact without materializing the graph in memory, then reopens the
// result to verify every checksum and report its identity.
func runConvert(args []string) {
	fs := flag.NewFlagSet("oracled convert", flag.ExitOnError)
	in := fs.String("in", "", "source edge list, native 'n'/'e' or DIMACS 'p sp'/'a' (required)")
	out := fs.String("out", "", "artifact to write (required)")
	fs.Parse(args)
	if *in == "" || *out == "" {
		log.Fatal("convert: both -in and -out are required")
	}
	start := time.Now()
	res, err := artifact.Convert(*in, *out)
	if err != nil {
		log.Fatal(err)
	}
	a, err := mpcspanner.Open(context.Background(), *out)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	fmt.Fprintf(os.Stderr, "converted %s -> %s in %v: n=%d m=%d checksum=%s\n",
		*in, *out, time.Since(start).Round(time.Millisecond), res.N, res.M, a.Checksum())
	fmt.Fprintf(os.Stderr, "serve it with: oracled serve -load %s\n", *out)
}

// runServe is the daemon half.
func runServe(args []string) {
	fs := flag.NewFlagSet("oracled serve", flag.ExitOnError)
	gc := cliutil.GraphFlags(fs)
	ac := cliutil.ArtifactFlags(fs)
	sc := cliutil.ServeFlags(fs)
	addr := fs.String("addr", ":8080", "listen address")
	inflight := fs.Int("inflight", 0, "max concurrent batches inside the oracle (0 = cache row budget / 4)")
	queueWait := fs.Duration("queue-wait", 100*time.Millisecond, "longest a request may queue for an in-flight slot before 429")
	maxPairs := fs.Int("max-pairs", 0, "max pairs per request batch (0 = 65536)")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "ceiling on client-requested timeout_ms")
	drain := fs.Duration("drain", 15*time.Second, "grace period for in-flight requests on SIGTERM")
	fs.Parse(args)
	if err := ac.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}
	if ac.Save != "" && sc.Exact {
		log.Fatal(&mpcspanner.OptionError{Field: "-save", Value: ac.Save,
			Reason: "nothing is built to save with -exact (use 'oracled convert' for graph-only artifacts)"})
	}

	// One registry carries the whole story: build-side mpc_* series, serving
	// oracle_* series, and the daemon's server_* admission series, all on the
	// same /metrics endpoint.
	reg := mpcspanner.NewMetrics()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var art *mpcspanner.Artifact
	var g *mpcspanner.Graph
	var err error
	start := time.Now()
	if ac.Load != "" {
		// Cold start from a saved artifact: no generation, no build — the
		// graph (mmapped where possible) and any frozen rows come straight
		// from the file, and /v1/info advertises exactly which build this
		// replica answers from.
		if art, err = mpcspanner.Open(ctx, ac.Load); err != nil {
			log.Fatal(err)
		}
		defer art.Close()
		g = art.Graph()
	} else {
		// Bridge disconnected inputs so every served distance is finite —
		// except in -exact mode, where the graph must be served untouched
		// and cross-component queries correctly answer null (+Inf).
		if g, err = gc.Make(!sc.Exact); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "graph: n=%d m=%d\n", g.N(), g.M())
	}
	session, err := sc.Open(ctx, g, art, gc.Seed, reg, os.Stderr)
	if err != nil {
		if errors.Is(err, mpcspanner.ErrCanceled) {
			log.Fatal("canceled during the spanner build; not serving")
		}
		log.Fatal(err)
	}
	var artInfo *server.ArtifactInfo
	if art != nil {
		fp := art.Fingerprint()
		artInfo = &server.ArtifactInfo{
			Algorithm: fp.Algorithm, Seed: fp.Seed, K: fp.K, T: fp.T,
			Gamma: fp.Gamma, Workers: fp.Workers,
			Checksum: art.Checksum(), Rows: artifact.RowsOf(art).Len(),
			Mapped: art.Mapped(),
		}
		fmt.Fprintf(os.Stderr, "artifact: %s checksum=%s mapped=%v rows=%d fingerprint=%s loaded in %v\n",
			ac.Load, art.Checksum(), art.Mapped(), artInfo.Rows, fp,
			time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(os.Stderr, "graph: n=%d m=%d\n", g.N(), g.M())
	}
	if ac.Save != "" {
		// Save the fresh session — the build and no rows — and reopen it so
		// the printed checksum is the loader's view of the file: the line
		// the CI smoke job greps and asserts against a -load replica's
		// /v1/info.
		if err := session.Save(ac.Save); err != nil {
			log.Fatal(err)
		}
		a, err := mpcspanner.Open(ctx, ac.Save)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "artifact: saved to %s checksum=%s fingerprint=%s\n",
			ac.Save, a.Checksum(), a.Fingerprint())
		a.Close()
	}
	var memInfo *server.MemoryInfo
	if a := session.APSP(); a != nil && a.MemoryBudget > 0 {
		memInfo = &server.MemoryInfo{
			BudgetBytes: a.MemoryBudget, SpilledBytes: a.SpilledBytes,
			RunFiles: a.SpillRuns, MergePasses: a.MergePasses,
		}
	}

	// Admission ceiling derived from the oracle's row budget: at most a
	// quarter of the rows the cache can hold may be computing or pinned by
	// in-flight batches at once, so admitted load can never thrash the LRU
	// it depends on. -inflight overrides.
	ceil := *inflight
	if ceil <= 0 {
		ceil = session.CacheRows() / 4
		if ceil < 4 {
			ceil = 4
		}
	}

	sssp := session.SSSP()
	srv := server.New(server.Config{
		Backend:     session,
		Graph:       session.Served(),
		Metrics:     reg,
		MaxInflight: ceil,
		QueueWait:   *queueWait,
		MaxPairs:    *maxPairs,
		MaxTimeout:  *maxTimeout,
		Artifact:    artInfo,
		SSSP:        &server.SSSPInfo{Engine: sssp.Engine, Delta: sssp.Delta},
		Memory:      memInfo,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "listening on %s (/v1/query, /v1/info, /healthz, /metrics, /debug/pprof); inflight ceiling %d, queue wait %v, sssp=%s\n",
		l.Addr(), ceil, *queueWait, sssp.Engine)

	if err := srv.Run(ctx, l, *drain); err != nil {
		log.Fatal(err)
	}
	st := session.Stats()
	fmt.Fprintf(os.Stderr, "drained; cache at exit: hits=%d misses=%d point_fills=%d evictions=%d resident=%d\n",
		st.Hits, st.Misses, st.PointFills, st.Evictions, st.Resident)
}

// runLoad is the load-generator half.
func runLoad(args []string) {
	fs := flag.NewFlagSet("oracled load", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "daemon (or proxy) base URL")
	q := fs.Int("q", 10000, "total queries to fire")
	zipf := fs.Float64("zipf", 1.2, "Zipf exponent of the source distribution")
	seed := fs.Uint64("seed", 1, "workload seed (equal seeds give identical traces)")
	batch := fs.Int("batch", 512, "pairs per request")
	conc := fs.Int("concurrency", 8, "concurrent in-flight requests")
	timeout := fs.Duration("timeout", 0, "per-request timeout_ms budget (0 = none)")
	fs.Parse(args)
	if *zipf <= 0 {
		log.Fatalf("-zipf exponent must be positive, got %g", *zipf)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c := server.NewClient(*addr)
	info, err := c.Info(ctx)
	if err != nil {
		log.Fatalf("fetching /v1/info from %s: %v", *addr, err)
	}
	if info.N == 0 {
		log.Fatal("daemon serves an empty graph; nothing to query")
	}
	fmt.Fprintf(os.Stderr, "target: n=%d m=%d, max_inflight=%d, max_pairs=%d\n",
		info.N, info.M, info.MaxInflight, info.MaxPairs)
	if *batch > info.MaxPairs {
		log.Fatalf("-batch %d exceeds the daemon's %d-pair ceiling", *batch, info.MaxPairs)
	}

	// The exact workload shape of cmd/oracle -synth and the serving
	// benchmarks: Zipf-skewed sources, uniform targets, deterministic in
	// (n, q, exponent, seed).
	pairs := oracle.ZipfWorkload(info.N, *q, *zipf, *seed)
	report := c.RunLoad(ctx, server.LoadOptions{
		Pairs: pairs, Batch: *batch, Concurrency: *conc, Timeout: *timeout,
	})

	qps := float64(report.PairsOK) / math.Max(report.Elapsed.Seconds(), 1e-9)
	fmt.Fprintf(os.Stderr, "fired %d batches (%d pairs) in %v: %d ok, %d shed (429), %d failed; %.0f pairs/sec\n",
		report.Batches, len(pairs), report.Elapsed.Round(time.Millisecond),
		report.OK, report.Shed, report.Failed, qps)
	fmt.Fprintf(os.Stderr, "request latency: p50=%v p95=%v p99=%v\n",
		report.Quantile(0.50).Round(time.Microsecond),
		report.Quantile(0.95).Round(time.Microsecond),
		report.Quantile(0.99).Round(time.Microsecond))
	if report.Failed > 0 {
		log.Fatalf("%d requests failed (shedding is fine, failures are not)", report.Failed)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "interrupted; partial run reported above")
	}
}
