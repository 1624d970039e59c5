// Command pipebench is the repository's end-to-end benchmark. It drives the
// build-once/serve-many pipeline as shipped, on an input it generates from
// its seed, and reports what a user of the pipeline sees:
//
//  1. artifact.Convert turns the text edge list into an artifact, and
//     mpcspanner.Open maps it.
//  2. mpcspanner.Build with AlgoMPC, k = ⌈log₂ n⌉ and t = ⌈log₂ k⌉, then
//     BuildResult.Save.
//  3. mpcspanner.Open maps the spanner artifact and Serve(WithArtifact)
//     wraps it in a session.
//  4. server.New on a loopback listener, set up the way `oracled serve
//     -load` sets it up: MaxInflight is CacheRows()/4 with a floor of 4,
//     and requests queue for at most 100 ms.
//  5. Open-loop /v1/query traffic: first a light phase at a fixed rate,
//     then a ladder of rising rates.
//
// Run it from the repository root:
//
//	bash pipebench/run.sh --workload resident-hot --seed 1 --seconds 40 --trace 0
//
// run.sh builds the command from the checkout with the Go build cache under
// .bench_build/, where the run also keeps its scratch files, span dumps and
// saved results. The command prints a report on standard error and, as the
// last line of standard output, one JSON object: correct, attempted,
// failed, and the end-to-end metrics (or, with --trace 1, the per-layer
// metrics), each with its unit. It exits non-zero when any check fails.
// The report gives the share of the machine's CPU time the hypervisor stole
// during the run. The self-test runs both workloads on a 2k-vertex input
// with every check on: cd pipebench && go test .
//
// # Workloads
//
// Both draw their input from one generator: GNP with average degree 32,
// weights uniform in [1, 100), then Connectify. They scale the workloads of
// the benchmark's specification (n = 25k and 50k at degree 64) down by the
// same factor, so that one run fits in about a minute on a 2-vCPU box. The
// graph and the build's coins are fixed per workload, because across GNP
// draws the spanner's size alone varied by ±12%; the run's seed permutes
// the edge list, picks the hot set and draws every request. Traffic is open
// loop, because its callers are independent users, over two connections
// from this process.
//
// resident-hot: n = 20,000, below the 32,768 vertices at which SSSPAuto
// switches from the heap to delta-stepping. A resident build, the default
// 1024-row cache, and requests of 64 pairs whose sources follow Zipf(1.2)
// over 256 seeded hot vertices, all warmed during set-up; targets are
// uniform. Every row lookup is a cache hit and the build runs the resident
// store, so serving time is server work plus the oracle hit path, extmem
// is idle and dist runs only in set-up. A server or hit-path optimisation
// shows here. Light rate 2,000 req/s; ladder 3,000 to 14,300 req/s in steps
// of 25%; p99 limit 50 ms.
//
// budgeted-cold: n = 40,000, on the delta-stepping side of the switch. A
// build under WithMemoryBudget set to a quarter of the 2m-tuple footprint,
// a 64-row cache, and requests of one pair with the source uniform over all
// n. The working set is 625 times the cache, so nearly every request is a
// dist fill plus an LRU eviction, and extmem spills and merges (about three
// merge passes per sort) dominate the build, while per-request server cost
// is negligible. It uses the mpc, oracle and artifact layers the other way
// from resident-hot, and it is the only workload where an extmem or dist
// optimisation shows. Light rate 50 req/s; ladder 60 to 286 req/s in
// steps of 25%; p99 limit 300 ms.
//
// # End-to-end metrics
//
// The result line carries seven metrics, each gated by the bound in
// BENCHMARK.json. build_cpu_s is the CPU time of Convert, Open of the
// input, Build and Save; build_rss_mb is the peak RSS over them.
// resident-hot builds three times and reports the build with the median
// CPU time; a budgeted-cold build is long enough to time once. setup_s is
// the median over several replica start-ups of Open, Serve, the listener
// answering /healthz and the warm-up: the hot set on resident-hot, the
// first answer on budgeted-cold. serve_cpu_ms is the CPU time per request
// of the light phase, the replica's and the generator's together.
// serve_rss_mb is the peak RSS from the last start-up to the end of the
// light phase; the ladder is left out because how far it climbs, and so
// how fast it allocates, is max_rps. Before the build and before each
// start-up the command drops its own graph, returns freed memory to the OS
// and resets VmHWM through /proc/self/clear_refs. stretch_max divides whole
// served rows of four fixed sources by exact rows of the input graph; the
// run fails above StretchBound(k, t). spanner_edges is the size of the
// served spanner.
//
// The report also prints five metrics the result line leaves out. build_s
// is the build's wall-clock time. Latencies are timed from each request's
// due time, so a stall also charges the requests it delays. p50_ms is the
// light phase's median. p99_ms splits the light phase into windows of
// 1,000 requests, so each window's p99 has ten requests beyond it, and
// reports the median of the window p99s. A ladder step is judged by its
// p99, or by the median lateness of its last quarter of requests if that
// is worse, which grows with a backlog but not with one stall; max_rps is
// the highest step within the limit, interpolated linearly in that score
// towards the first step beyond it. The limits sit above what host stalls
// alone produce, so that the ladder finds where the backlog starts to grow.
// Shed and failed requests count as infinitely late. error_ratio is the
// share of warm-up and light-phase requests not answered with a correct
// 200; the result line carries it as failed/attempted. The wall-clock
// metrics stretch with the CPU time the hypervisor steals from the run,
// which the report gives: over ten runs in which it ranged from 1% to 24%,
// build_s, p50_ms and max_rps spread by up to 0.27, 0.25 and 0.36 of their
// medians, beyond the 0.25 a gate allows, and p99_ms by a factor of two.
// The CPU-time metrics stand in for them in the gate.
//
// # Checks
//
// Every response's status and distance count is checked. One request in 32
// keeps its answers, and those of up to 32 sources are compared bit for bit
// with rows computed in-process on the served spanner; so are the stretch
// rows, which must also never undercut the exact distance. The reopened
// artifact's edge ids must equal BuildResult.EdgeIDs.
//
// # Traced run
//
// With --trace 1 the command keeps spans in memory: around Convert, Open,
// Build (with a child span between consecutive progress events), Save and
// Serve, around every request the generator sends, around the replica's
// HTTP handler (which joins the request through headers) and around each
// Session.QueryMany through a server.Backend wrapper. It prints the
// per-layer metrics with the layer and end-to-end metric each should move,
// a self-time table per layer and span name, and the span dump's path. If
// an untraced run of the same workload and seed saved its results under
// .bench_build/results, it also prints the tracing overhead per end-to-end
// metric.
package main
