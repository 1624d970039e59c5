// Command oracle is the serving-layer driver: it loads or generates a graph,
// opens a cached distance-serving Session over it — Serve's Corollary 1.4
// pipeline by default, exact distances under -exact, a saved artifact under
// -load — and answers (source, target) queries from a pairs file, stdin, or
// a synthetic Zipf workload.
//
//	go run ./cmd/oracle -gen gnp -n 20000 -deg 10 -synth 50000 -quiet
//	go run ./cmd/oracle -in graph.txt -pairs queries.txt
//	echo "0 99" | go run ./cmd/oracle -gen grid -n 10000 -exact
//
// Pairs files hold one "u v" pair per line ('#' comments allowed). Results
// go to stdout, one distance per line in input order; cache statistics and
// timings go to stderr. Ctrl-C cancels the build (and any in-flight batch)
// at its next checkpoint; already-served batches are flushed. This is the
// offline tool; `oracled serve` serves the same session over HTTP, with live
// /metrics and /debug/pprof.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpcspanner"
	"mpcspanner/cmd/internal/cliutil"
	"mpcspanner/internal/artifact"
	"mpcspanner/internal/oracle"
)

func main() {
	gc := cliutil.GraphFlags(flag.CommandLine)
	ac := cliutil.ArtifactFlags(flag.CommandLine)
	sc := cliutil.ServeFlags(flag.CommandLine)
	pairs := flag.String("pairs", "-", "pairs file, '-' = stdin (ignored with -synth)")
	synth := flag.Int("synth", 0, "generate this many Zipf-source queries instead of reading pairs")
	zipf := flag.Float64("zipf", 1.2, "Zipf exponent of the -synth source distribution")
	batch := flag.Int("batch", 1024, "serve queries in batches of this size (stats then show cross-batch cache hits); <= 0 = one batch")
	quiet := flag.Bool("quiet", false, "suppress per-query output, print stats only")
	met := cliutil.MetricsFlag()
	flag.Parse()
	if err := ac.Validate(); err != nil {
		log.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		log.Fatal(err)
	}

	// One registry feeds the build (mpc_* series), the serving oracle
	// (oracle_* series) and the -metrics dump.
	reg := met.Registry()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// -load serves a saved artifact: the graph (and any frozen rows) come
	// from the file, so the generator path is skipped entirely.
	var art *mpcspanner.Artifact
	var g *mpcspanner.Graph
	var err error
	if ac.Load != "" {
		art, err = mpcspanner.Open(ctx, ac.Load)
		if err != nil {
			log.Fatal(err)
		}
		defer art.Close()
		g = art.Graph()
		fmt.Fprintf(os.Stderr, "artifact: %s checksum=%s mapped=%v rows=%d fingerprint=%s\n",
			ac.Load, art.Checksum(), art.Mapped(), artifact.RowsOf(art).Len(), art.Fingerprint())
	} else {
		// Bridge disconnected inputs so every served distance is finite —
		// except in -exact mode, where the input graph must be served
		// untouched and cross-component queries correctly answer +Inf.
		g, err = gc.Make(!sc.Exact)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "graph: n=%d m=%d\n", g.N(), g.M())

	// Load and validate the workload first: a typo in a pairs file must fail
	// in milliseconds, not after the spanner build. The spanner keeps the
	// vertex set, so bounds checked against g hold for the served graph too.
	var queries []oracle.Pair
	if *synth > 0 {
		if *zipf <= 0 {
			log.Fatalf("-zipf exponent must be positive, got %g", *zipf)
		}
		if g.N() == 0 {
			log.Fatal("cannot synthesize queries on an empty graph")
		}
		queries = oracle.ZipfWorkload(g.N(), *synth, *zipf, gc.Seed)
	} else if queries, err = readPairs(*pairs, g.N()); err != nil {
		log.Fatal(err)
	}

	s, err := sc.Open(ctx, g, art, gc.Seed, reg, os.Stderr)
	if err != nil {
		if errors.Is(err, mpcspanner.ErrCanceled) {
			fmt.Fprintln(os.Stderr, "canceled during the spanner build; no queries served")
		}
		log.Fatal(err)
	}
	sssp := s.SSSP()
	fmt.Fprintf(os.Stderr, "sssp: engine=%s delta=%g\n", sssp.Engine, sssp.Delta)

	bs := *batch
	if bs <= 0 || bs > len(queries) {
		bs = len(queries)
	}
	start := time.Now()
	dists := make([]float64, 0, len(queries))
	for lo := 0; lo < len(queries); lo += bs {
		hi := lo + bs
		if hi > len(queries) {
			hi = len(queries)
		}
		part, err := s.QueryMany(ctx, queries[lo:hi])
		if err != nil {
			if errors.Is(err, mpcspanner.ErrCanceled) {
				fmt.Fprintf(os.Stderr, "canceled mid-serve: %d/%d queries answered\n", lo, len(queries))
				queries = queries[:lo]
				break
			}
			log.Fatal(err)
		}
		dists = append(dists, part...)
	}
	elapsed := time.Since(start)

	if !*quiet {
		w := bufio.NewWriter(os.Stdout)
		for i := range dists {
			fmt.Fprintf(w, "%d %d %g\n", queries[i].U, queries[i].V, dists[i])
		}
		w.Flush()
	}
	st := s.Stats()
	perQ := float64(elapsed.Nanoseconds()) / math.Max(1, float64(len(dists)))
	fmt.Fprintf(os.Stderr, "served %d queries in %v (%.0f ns/query)\n",
		len(dists), elapsed.Round(time.Microsecond), perQ)
	fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d point_fills=%d evictions=%d resident=%d\n",
		st.Hits, st.Misses, st.PointFills, st.Evictions, st.Resident)
	if *synth > 0 && reg != nil {
		if h := reg.Snapshot().Histogram("oracle_row_seconds"); h != nil && h.Count > 0 {
			fmt.Fprintf(os.Stderr, "row latency (%d rows): p50=%v p95=%v p99=%v\n", h.Count,
				quantDur(h, 0.50), quantDur(h, 0.95), quantDur(h, 0.99))
		}
	}
	if ac.Save != "" {
		// Snapshot the session after serving, so every row the workload
		// warmed is frozen into the artifact and a future -load starts hot.
		if err := s.Save(ac.Save); err != nil {
			log.Fatal(err)
		}
		a, err := mpcspanner.Open(ctx, ac.Save)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "artifact: saved to %s checksum=%s rows=%d\n",
			ac.Save, a.Checksum(), artifact.RowsOf(a).Len())
		a.Close()
	}
	if err := met.Dump(); err != nil {
		log.Fatal(err)
	}
}

// quantDur renders a latency-histogram quantile as a rounded duration.
func quantDur(h *mpcspanner.HistogramSnapshot, q float64) time.Duration {
	return time.Duration(h.Quantile(q) * float64(time.Second)).Round(time.Microsecond)
}

// readPairs parses one "u v" pair per line; '-' reads stdin.
func readPairs(path string, n int) ([]oracle.Pair, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var out []oracle.Pair
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("pairs line %d: want exactly 2 fields \"u v\", got %d", line, len(fields))
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pairs line %d: %v", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("pairs line %d: %v", line, err)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("pairs line %d: vertex out of range [0,%d)", line, n)
		}
		out = append(out, oracle.Pair{U: u, V: v})
	}
	return out, sc.Err()
}
