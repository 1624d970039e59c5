package main

import "time"

// workload fixes everything a run does except the seed: the input graph's
// shape, how the spanner is built, how the replica is configured, and the
// traffic offered to it.
type workload struct {
	name string
	why  string

	// Input: GNP with this many vertices and this average degree, weights
	// uniform in [1, 100), then Connectify.
	n      int
	degree float64

	// budget is WithMemoryBudget as a share of the build's 2m-tuple
	// footprint; 0 builds with the resident store.
	budget float64

	cacheRows int // WithCacheRows of the replica
	batch     int // pairs per /v1/query request

	// Sources follow Zipf(zipf) over hot seeded vertices, all of which the
	// set-up warms; hot == 0 draws sources uniformly over all n vertices.
	// Targets are always uniform.
	hot  int
	zipf float64

	// buildReps is how many times one run builds; the run reports the
	// build with the median build_cpu_s. setupReps is how many replica
	// start-ups it times; setup_s is their median and the last one serves
	// the traffic.
	buildReps, setupReps int

	lightRate float64   // req/s of the light phase behind p50_ms and p99_ms
	ladder    []float64 // req/s of the ascending steps behind max_rps
	p99Limit  time.Duration
}

// Both workloads draw their input from the same generator and differ in
// which side of each layer's fast path they exercise; see the package doc.
var workloads = []workload{
	{
		name: "resident-hot",
		why: "n=20k, below the 32,768 SSSPAuto switch; resident build; 64-pair requests whose Zipf sources hit " +
			"a warmed 256-row hot set, so serving is server work plus the oracle hit path",
		n: 20_000, degree: 32,
		cacheRows: 1024, batch: 64, hot: 256, zipf: 1.2,
		buildReps: 3, setupReps: 3,
		lightRate: 2000,
		ladder:    []float64{3000, 3750, 4690, 5860, 7320, 9150, 11440, 14300},
		p99Limit:  50 * time.Millisecond,
	},
	{
		name: "budgeted-cold",
		why: "n=40k, above the SSSPAuto switch; build under a quarter-footprint byte budget; 1-pair requests " +
			"with uniform sources and a 64-row cache, so nearly every request is a dist fill plus an eviction",
		n: 40_000, degree: 32, budget: 0.25,
		cacheRows: 64, batch: 1,
		buildReps: 1, setupReps: 9,
		lightRate: 50,
		ladder:    []float64{60, 75, 94, 117, 146, 183, 229, 286},
		p99Limit:  300 * time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric documents one reported number. BENCHMARK.json repeats name, unit,
// direction and (for end-to-end metrics) bound; the self-test keeps the two
// in agreement. layer, moves and on record which end-to-end metric a
// per-layer metric should move, and on which workload.
type metric struct {
	name, unit, better string
	bound              float64
	layer, moves, on   string
}

// endToEnd are the metrics the result line carries, each with the share by
// which its median may worsen before a change counts as a regression. On
// a shared virtual machine the hypervisor steals a varying share of CPU
// time from each run, which stretches wall-clock times together with it,
// so the time of each phase is gated as the CPU time the process spent in
// it: the build's, and the light phase's per request.
var endToEnd = []metric{
	{name: "build_cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "build_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "serve_cpu_ms", unit: "ms", better: "lower", bound: 0.20},
	{name: "serve_rss_mb", unit: "MiB", better: "lower", bound: 0.15},
	{name: "stretch_max", unit: "ratio", better: "lower", bound: 0.02},
	{name: "spanner_edges", unit: "count", better: "lower", bound: 0.02},
}

// reported are end-to-end metrics the report prints but the result line
// leaves out. Across ten runs of the same input, as the stolen share of
// CPU time ranged from 1% to 24%, build_s, p50_ms and max_rps spread by up
// to 0.27, 0.25 and 0.36 of their medians, and p99_ms, which host stalls
// of tens of milliseconds set, by a factor of two; none could be held
// within the 0.25 a gate allows. error_ratio is 0 on a correct run; the
// result line carries it as failed/attempted.
var reported = []metric{
	{name: "build_s", unit: "s", better: "lower"},
	{name: "p50_ms", unit: "ms", better: "lower"},
	{name: "p99_ms", unit: "ms", better: "lower"},
	{name: "max_rps", unit: "req/s", better: "higher"},
	{name: "error_ratio", unit: "fraction", better: "lower"},
}

// perLayer are the traced run's metrics: spans the benchmark records around
// each layer's public calls, and counts read at the same boundaries.
var perLayer = []metric{
	{name: "artifact.convert_s", unit: "s", better: "lower", layer: "artifact", moves: "build_s", on: "both"},
	{name: "artifact.save_s", unit: "s", better: "lower", layer: "artifact", moves: "build_s", on: "both"},
	{name: "artifact.open_ms", unit: "ms", better: "lower", layer: "artifact", moves: "setup_s", on: "both"},
	{name: "artifact.file_mb", unit: "MiB", better: "lower", layer: "artifact", moves: "serve_rss_mb", on: "both"},
	{name: "mpc.build_s", unit: "s", better: "lower", layer: "mpc", moves: "build_s", on: "both"},
	{name: "mpc.grow_s", unit: "s", better: "lower", layer: "mpc", moves: "build_s", on: "both"},
	{name: "mpc.contract_s", unit: "s", better: "lower", layer: "mpc", moves: "build_s", on: "both"},
	{name: "mpc.iter_max_s", unit: "s", better: "lower", layer: "mpc", moves: "build_s", on: "both"},
	{name: "mpc.rounds", unit: "count", better: "lower", layer: "mpc", moves: "none (must stay equal)", on: "both"},
	{name: "mpc.sorts", unit: "count", better: "lower", layer: "mpc", moves: "none (must stay equal)", on: "both"},
	{name: "mpc.tuples_moved", unit: "count", better: "lower", layer: "mpc", moves: "none (must stay equal)", on: "both"},
	{name: "extmem.spilled_gb", unit: "GB", better: "lower", layer: "extmem", moves: "build_s", on: "budgeted-cold"},
	{name: "extmem.run_files", unit: "count", better: "lower", layer: "extmem", moves: "build_s", on: "budgeted-cold"},
	{name: "extmem.merge_passes", unit: "count", better: "lower", layer: "extmem", moves: "build_s", on: "budgeted-cold"},
	{name: "extmem.resident_peak_mb", unit: "MiB", better: "lower", layer: "extmem", moves: "build_rss_mb", on: "budgeted-cold"},
	{name: "oracle.batch_p50_ms", unit: "ms", better: "lower", layer: "oracle", moves: "p50_ms", on: "both"},
	{name: "oracle.batch_p99_ms", unit: "ms", better: "lower", layer: "oracle", moves: "p99_ms", on: "both"},
	{name: "oracle.hit_ratio", unit: "fraction", better: "higher", layer: "oracle", moves: "p99_ms, max_rps", on: "both"},
	{name: "oracle.evictions", unit: "count", better: "lower", layer: "oracle", moves: "p99_ms, max_rps", on: "both"},
	{name: "dist.fills", unit: "count", better: "lower", layer: "dist", moves: "p50_ms, max_rps", on: "budgeted-cold"},
	{name: "dist.fill_ms", unit: "ms", better: "lower", layer: "dist", moves: "p50_ms, max_rps on budgeted-cold; setup_s", on: "both"},
	{name: "server.self_p50_ms", unit: "ms", better: "lower", layer: "server", moves: "p50_ms, max_rps", on: "resident-hot"},
	{name: "server.self_p99_ms", unit: "ms", better: "lower", layer: "server", moves: "p99_ms, max_rps", on: "resident-hot"},
	{name: "server.wire_p50_ms", unit: "ms", better: "lower", layer: "server", moves: "p50_ms, max_rps", on: "resident-hot"},
	{name: "server.shed", unit: "count", better: "lower", layer: "server", moves: "error_ratio, max_rps", on: "both"},
	{name: "loadgen.late_p99_ms", unit: "ms", better: "lower", layer: "loadgen", moves: "validity of p50_ms, p99_ms, max_rps", on: "both"},
	{name: "loadgen.backlog_max", unit: "count", better: "lower", layer: "loadgen", moves: "validity of p50_ms, p99_ms, max_rps", on: "both"},
}
