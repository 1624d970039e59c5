package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
	"time"

	"mpcspanner"
)

const (
	lightShare  = 0.5  // share of -seconds given to the light phase; the ladder gets the rest
	minLight    = 1000 // light-phase requests, so p99 has ten samples beyond it
	minStepReqs = 100  // fewest requests in a ladder step
)

func main() {
	name := flag.String("workload", "", "workload to run: resident-hot or budgeted-cold")
	seed := flag.Uint64("seed", 1, "seed of the edge list's order, the hot set and the traffic")
	seconds := flag.Float64("seconds", 40, "traffic time of the run: the light phase, then the rate ladder")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := flag.String("out", ".bench_build", "directory for scratch files, span dumps and saved results")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "pipebench: need -workload resident-hot|budgeted-cold, -trace 0|1 and -seconds > 0\n")
		os.Exit(2)
	}
	// The budgeted build's spill files go to the default temp directory;
	// keep them under out.
	tmp, err := filepath.Abs(filepath.Join(*out, "tmp"))
	if err == nil {
		err = os.MkdirAll(tmp, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	os.Setenv("TMPDIR", tmp)
	res, err := execute(context.Background(), w, *seed, *seconds, *trace == 1, *out, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

// result is one run's outcome: the end-to-end metrics, and in a traced run
// the per-layer metrics too.
type result struct {
	traced            bool
	attempted, failed int
	v                 verdict
	e2e, layer        map[string]float64
}

func (r *result) correct() bool { return r.v.bad == 0 && r.failed == 0 }

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// line is the last line of standard output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (r *result) line() resultLine {
	l := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]valueUnit{}}
	ms, vals := endToEnd, r.e2e
	if r.traced {
		ms, vals = perLayer, r.layer
	}
	for _, m := range ms {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = math.MaxFloat32 // only an incorrect run gets here (every request failed)
		}
		l.Metrics[m.name] = valueUnit{v, m.unit}
	}
	return l
}

// execute runs one workload end to end in a scratch directory under out,
// which it removes before returning.
func execute(ctx context.Context, w workload, seed uint64, seconds float64, traced bool, out string, log io.Writer) (*result, error) {
	dir, err := filepath.Abs(filepath.Join(out, "work"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if dir, err = os.MkdirTemp(dir, w.name+"-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	total0, steal0 := cpuTicks()
	r := &run{w: w, seed: seed, seconds: seconds, dir: dir}
	r.edgesPath, r.inputPath, r.spannerPath = r.path("edges.txt"), r.path("input.art"), r.path("spanner.art")
	if traced {
		r.tr = newRecorder()
	}
	res, err := r.measure(ctx, log)
	if err != nil {
		return nil, err
	}
	if total, steal := cpuTicks(); total > total0 {
		fmt.Fprintf(log, "host: %.1f%% of the machine's CPU time during the run was stolen by other guests\n",
			100*float64(steal-steal0)/float64(total-total0))
	}
	if err := report(res, r, out, log); err != nil {
		return nil, err
	}
	return res, nil
}

// measure is the pipeline: input, build, replica start-ups, traffic,
// checks.
func (r *run) measure(ctx context.Context, log io.Writer) (*result, error) {
	w := r.w
	res := &result{traced: r.tr != nil}
	if err := r.writeInput(); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "pipebench %s seed=%d: n=%d m=%d k=%d t=%d traced=%v\n", w.name, r.seed, r.n, r.m, r.k, r.t, res.traced)

	var builds []*buildOut
	for range w.buildReps {
		b, err := r.build(ctx, mpcspanner.NewMetrics())
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		builds = append(builds, b)
	}
	sort.Slice(builds, func(i, j int) bool { return builds[i].cpuS < builds[j].cpuS })
	b := builds[len(builds)/2]
	mp := b.mpc
	fmt.Fprintf(log, "build: median of %d %.3f s (convert %.3f, Build %.3f, save %.3f), %.3f CPU s, peak RSS %.1f MiB, "+
		"%d spanner edges, %d rounds, %d sorts, %d tuples moved, spilled %d B in %d runs over %d merge passes\n",
		len(builds), b.seconds, b.convertS, b.buildS, b.saveS, b.cpuS, b.rssMB, b.edges, mp.Rounds, mp.Sorts,
		mp.TuplesMoved, mp.SpilledBytes, mp.SpillRuns, mp.MergePasses)

	// Replica start-ups. Each one reads the peak RSS afresh, so after the
	// last, which serves the traffic, VmHWM covers that replica alone.
	var setups, opens []float64
	var phases []*outcome
	var rep *replica
	for i := range w.setupReps {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		rp, d, warm, err := r.startReplica(ctx, mpcspanner.NewMetrics())
		if err != nil {
			return nil, fmt.Errorf("replica start-up: %w", err)
		}
		setups, opens = append(setups, d.Seconds()), append(opens, rp.openMS)
		res.attempted += warm.sent
		res.failed += warm.failed + warm.shed
		if i < w.setupReps-1 {
			if err := rp.close(); err != nil {
				return nil, err
			}
			continue
		}
		rep = rp
		phases = append(phases, warm)
	}
	defer rep.close()
	fmt.Fprintf(log, "setup: %d start-ups, median %.4f s, each %.4f\n", len(setups), median(setups), setups)

	// Traffic: the light phase, then the ladder until a step misses the
	// limit.
	lightN := int(w.lightRate * lightShare * r.seconds)
	if lightN < minLight {
		fmt.Fprintf(log, "light phase raised from %d to %d requests so that p99 has ten beyond it\n", lightN, minLight)
		lightN = minLight
	}
	// stats[i+1]-stats[i] is the cache's work in phases[i]; the session
	// was fresh before the warm-up.
	stats := []mpcspanner.OracleStats{{}, rep.sess.Stats()}
	cpu0 := cpuTime()
	light := rep.gen.run(ctx, phase{name: "light", rate: w.lightRate, count: lightN,
		pairs: r.trafficPairs(1), sample: r.sampled(1)})
	serveCPU := ms(cpuTime()-cpu0) / float64(max(light.sent, 1))
	stats = append(stats, rep.sess.Stats())
	phases = append(phases, light)
	res.attempted += light.sent
	res.failed += light.failed + light.shed
	// The ladder's allocation rate, and so the heap's peak, follows how far
	// it climbs, which is max_rps; the replica's footprint is read before.
	serveRSS, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	stepSecs := (1 - lightShare) * r.seconds / float64(len(w.ladder))
	var steps []*outcome
	for j, rate := range w.ladder {
		n := max(int(rate*stepSecs), minStepReqs)
		st := rep.gen.run(ctx, phase{name: fmt.Sprintf("step%d", j), rate: rate, count: n,
			pairs: r.trafficPairs(uint64(2 + j)), sample: r.sampled(uint64(2 + j))})
		stats = append(stats, rep.sess.Stats())
		steps = append(steps, st)
		phases = append(phases, st)
		if !st.meets(w.p99Limit) {
			break
		}
	}
	rps, inLadder := maxRPS(steps, w.p99Limit)
	printPhases(log, phases, stats, w.p99Limit)
	if !inLadder {
		fmt.Fprintf(log, "max_rps: the lowest ladder step already misses the p99 limit\n")
	} else if steps[len(steps)-1].meets(w.p99Limit) {
		fmt.Fprintf(log, "max_rps: every ladder step met the p99 limit; the ladder top is reported\n")
	}

	// Checks, after every measurement: they load the input graph again.
	var answers []answer
	shed := 0
	for _, ph := range phases {
		answers = append(answers, ph.answers...)
		shed += ph.shed
		for _, e := range ph.errs {
			fmt.Fprintf(log, "  %s: %s\n", ph.name, e)
		}
	}
	for _, st := range steps {
		// Shedding is the server's answer to overload; any other failure
		// on the ladder is an error.
		if st.failed > 0 {
			res.v.fail("%s: %d requests failed", st.name, st.failed)
		}
	}
	checked, err := checkAnswers(rep.sess, answers, &res.v)
	if err != nil {
		return nil, err
	}
	stretch, err := r.checkStretch(ctx, rep, &res.v)
	if err != nil {
		return nil, fmt.Errorf("stretch check: %w", err)
	}
	if hashIDs(rep.art.EdgeIDs()) != b.edgeHash {
		res.v.fail("the reopened artifact's edge ids differ from BuildResult.EdgeIDs")
	}
	res.failed += res.v.bad
	fmt.Fprintf(log, "checks: %d sampled answers and %d whole rows compared with in-process rows, edge ids compared; %d failures\n",
		checked, stretchSources, res.v.bad)
	for _, p := range res.v.problems {
		fmt.Fprintln(log, "  FAIL:", p)
	}

	res.e2e = map[string]float64{
		"build_s":       b.seconds,
		"build_cpu_s":   b.cpuS,
		"build_rss_mb":  b.rssMB,
		"setup_s":       median(setups),
		"serve_cpu_ms":  serveCPU,
		"serve_rss_mb":  serveRSS,
		"p50_ms":        light.p50(),
		"p99_ms":        light.p99(),
		"max_rps":       rps,
		"error_ratio":   float64(res.failed) / float64(max(res.attempted, 1)),
		"stretch_max":   stretch,
		"spanner_edges": float64(b.edges),
	}
	if r.tr == nil {
		return res, nil
	}

	fill, err := r.fillMS(rep.sess)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(r.spannerPath)
	if err != nil {
		return nil, err
	}
	self, wire, batch := r.requestSplit(light)
	lightStats := sub(stats[2], stats[1])
	res.layer = map[string]float64{
		"artifact.convert_s":      b.convertS,
		"artifact.save_s":         b.saveS,
		"artifact.open_ms":        median(opens),
		"artifact.file_mb":        float64(st.Size()) / (1 << 20),
		"mpc.build_s":             b.buildS,
		"mpc.grow_s":              b.growS,
		"mpc.contract_s":          b.contractS,
		"mpc.iter_max_s":          b.iterMaxS,
		"mpc.rounds":              float64(mp.Rounds),
		"mpc.sorts":               float64(mp.Sorts),
		"mpc.tuples_moved":        float64(mp.TuplesMoved),
		"extmem.spilled_gb":       float64(mp.SpilledBytes) / 1e9,
		"extmem.run_files":        float64(mp.SpillRuns),
		"extmem.merge_passes":     float64(mp.MergePasses),
		"extmem.resident_peak_mb": float64(b.residentPeakBytes) / (1 << 20),
		"oracle.batch_p50_ms":     quantile(batch, 0.50),
		"oracle.batch_p99_ms":     quantile(batch, 0.99),
		"oracle.hit_ratio":        float64(lightStats.Hits) / float64(max(lightStats.Hits+lightStats.Misses, 1)),
		"oracle.evictions":        float64(lightStats.Evictions),
		"dist.fills":              float64(lightStats.Misses),
		"dist.fill_ms":            fill,
		"server.self_p50_ms":      quantile(self, 0.50),
		"server.self_p99_ms":      quantile(self, 0.99),
		"server.wire_p50_ms":      quantile(wire, 0.50),
		"server.shed":             float64(shed),
		"loadgen.late_p99_ms":     quantile(append([]float64(nil), light.late[:light.sent]...), 0.99),
		"loadgen.backlog_max":     float64(light.backlogMax),
	}
	fmt.Fprintf(log, "ratio bases: oracle.hit_ratio over %d light-phase row lookups; server and oracle quantiles over %d light-phase requests; dist.fill_ms over %d direct fills\n",
		lightStats.Hits+lightStats.Misses, len(self), min(16, r.n))
	return res, nil
}

// requestSplit splits each answered light-phase request into its layers:
// the server's own time (handler minus backend), the wire (request minus
// handler) and the backend batch, all in ms.
func (r *run) requestSplit(light *outcome) (self, wire, batch []float64) {
	type req struct{ client, handler, backend time.Duration }
	byReq := map[int64]*req{}
	for _, s := range r.tr.snapshot() {
		if s.Req == 0 {
			continue
		}
		q := byReq[s.Req]
		if q == nil {
			q = &req{}
			byReq[s.Req] = q
		}
		switch s.Name {
		case "loadgen.request":
			q.client = s.dur()
		case "server.handler":
			q.handler = s.dur()
		case "oracle.query_many":
			q.backend = s.dur()
		}
	}
	for i, id := range light.reqIDs[:light.sent] {
		q := byReq[id]
		if q == nil || math.IsInf(light.lat[i], 1) || q.backend == 0 {
			continue
		}
		self = append(self, ms(q.handler-q.backend))
		wire = append(wire, ms(q.client-q.handler))
		batch = append(batch, ms(q.backend))
	}
	return self, wire, batch
}

// printPhases prints one row per traffic phase, with the cache counters'
// change over the phase.
func printPhases(log io.Writer, phases []*outcome, stats []mpcspanner.OracleStats, limit time.Duration) {
	tw := tabwriter.NewWriter(log, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(tw, "phase\trate/s\tsent\tok\tshed\tfailed\tp50 ms\tp99 ms\tlate p99 ms\tbacklog max\tscore ms\thits\tmisses\tevictions\tmeets %v\t\n", limit)
	for i, o := range phases {
		d := sub(stats[i+1], stats[i])
		fmt.Fprintf(tw, "%s\t%.0f\t%d\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\t%d\t%.1f\t%d\t%d\t%d\t%v\t\n",
			o.name, o.rate, o.sent, o.ok, o.shed, o.failed, o.p50(), o.p99(),
			quantile(append([]float64(nil), o.late[:o.sent]...), 0.99), o.backlogMax, o.score(),
			d.Hits, d.Misses, d.Evictions, o.rate == 0 || o.meets(limit))
	}
	tw.Flush()
}

// sub is the cache's work between two snapshots.
func sub(b, a mpcspanner.OracleStats) mpcspanner.OracleStats {
	return mpcspanner.OracleStats{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses, Evictions: b.Evictions - a.Evictions}
}

// report prints every metric by name and unit. An untraced run saves its
// end-to-end metrics; a traced run writes its span dump, prints the
// self-time table, and compares its end-to-end metrics with a saved
// untraced run of the same workload and seed, when there is one, as the
// tracing overhead.
func report(res *result, r *run, out string, log io.Writer) error {
	tw := tabwriter.NewWriter(log, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "end-to-end metric\tvalue\tunit\t\n")
	for _, m := range append(endToEnd, reported...) {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t\n", m.name, res.e2e[m.name], m.unit)
	}
	tw.Flush()
	fmt.Fprintf(log, "error_ratio base: %d failures over %d requests attempted in warm-up and the light phase\n",
		res.failed, res.attempted)

	saved := filepath.Join(out, "results", fmt.Sprintf("%s-seed%d.json", r.w.name, r.seed))
	if r.tr == nil {
		if err := os.MkdirAll(filepath.Dir(saved), 0o755); err != nil {
			return err
		}
		b, err := json.Marshal(res.e2e)
		if err != nil {
			return err
		}
		return os.WriteFile(saved, b, 0o644)
	}

	tw = tabwriter.NewWriter(log, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "per-layer metric\tvalue\tunit\tlayer\tshould move\ton\t\n")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\t%s\t%s\t\n", m.name, res.layer[m.name], m.unit, m.layer, m.moves, m.on)
	}
	tw.Flush()
	spans := r.tr.snapshot()
	printSelfTable(log, spans)
	dump := filepath.Join(out, "trace", fmt.Sprintf("%s-seed%d.jsonl", r.w.name, r.seed))
	if err := os.MkdirAll(filepath.Dir(dump), 0o755); err != nil {
		return err
	}
	if err := writeSpans(dump, spans); err != nil {
		return err
	}
	fmt.Fprintf(log, "span dump: %s (%d spans)\n", dump, len(spans))

	b, err := os.ReadFile(saved)
	if err != nil {
		fmt.Fprintf(log, "tracing overhead: no untraced run of %s seed %d saved in %s\n", r.w.name, r.seed, filepath.Dir(saved))
		return nil
	}
	var untraced map[string]float64
	if err := json.Unmarshal(b, &untraced); err != nil {
		return fmt.Errorf("reading %s: %w", saved, err)
	}
	tw = tabwriter.NewWriter(log, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "tracing overhead\tuntraced\ttraced\ttraced-untraced\tshare\t\n")
	for _, m := range append(endToEnd, reported...) {
		u, t := untraced[m.name], res.e2e[m.name]
		share := ""
		if u != 0 {
			share = fmt.Sprintf("%+.1f%%", 100*(t-u)/u)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%.6g\t%+.6g\t%s\t\n", m.name, u, t, t-u, share)
	}
	tw.Flush()
	return nil
}
