package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpcspanner"
	"mpcspanner/internal/artifact"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
	"mpcspanner/internal/server"
	"mpcspanner/internal/xrand"
)

const (
	conns     = 2 // open-loop connections, one sender goroutine each
	queueWait = 100 * time.Millisecond
	maxW      = 100.0 // weights are uniform in [1, maxW); Connectify bridges at maxW

	tupleBytes = 28 // bytes of one simulated MPC tuple, the unit of the build's footprint

	// graphSeed fixes each workload's graph and the build's coins. Across
	// GNP draws and build seeds the spanner's size varied by ±12% and its
	// stretch by more, which would swamp every bound; the run's own seed
	// permutes the edge list instead, so each seed's input file differs
	// while the work it takes stays the same.
	graphSeed = 1
)

// Stream tags: each seeded draw of a run comes from its own stream.
const (
	tagEdges = iota + 0x70627400
	tagHot
	tagTraffic
	tagSample
	tagStretch
	tagFill
)

// run is one invocation: one workload, one seed, inputs and artifacts in a
// private scratch directory.
type run struct {
	w       workload
	seed    uint64
	seconds float64
	dir     string
	tr      *recorder // nil when untraced

	edgesPath, inputPath, spannerPath string

	n, m    int
	k, t    int
	hot     []int
	zipfCDF []float64
	reqs    int64 // trace request ids handed out so far
}

// buildOut is what the build phase measured and what later checks need.
type buildOut struct {
	seconds, cpuS     float64
	rssMB             float64
	edges             int
	edgeHash          [sha256.Size]byte
	mpc               mpcspanner.MPCResult
	residentPeakBytes int64

	convertS, saveS, buildS    float64
	growS, contractS, iterMaxS float64 // from progress events, traced runs only
}

// writeInput generates the workload's graph, permutes its edges by the
// seed and writes it as a text edge list, the only form in which the
// pipeline sees it.
func (r *run) writeInput() error {
	g := graph.Connectify(graph.GNP(r.w.n, r.w.degree/float64(r.w.n), graph.UniformWeight(1, maxW), graphSeed), maxW)
	edges := make([]graph.Edge, g.M())
	for i, j := range xrand.Split(r.seed, tagEdges).Perm(g.M()) {
		edges[i] = g.Edge(j)
	}
	g, err := graph.New(g.N(), edges)
	if err != nil {
		return err
	}
	r.n, r.m = g.N(), g.M()
	f, err := os.Create(r.edgesPath)
	if err != nil {
		return err
	}
	if err := g.Write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing the edge list: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	r.k = int(math.Ceil(math.Log2(float64(r.n))))
	r.t = int(math.Max(1, math.Ceil(math.Log2(float64(r.k)))))
	if r.w.hot > 0 {
		r.hot = xrand.Split(r.seed, tagHot).Perm(r.n)[:r.w.hot]
		r.zipfCDF = make([]float64, r.w.hot)
		sum := 0.0
		for i := range r.zipfCDF {
			sum += math.Pow(float64(i+1), -r.w.zipf)
			r.zipfCDF[i] = sum
		}
		for i := range r.zipfCDF {
			r.zipfCDF[i] /= sum
		}
		r.zipfCDF[len(r.zipfCDF)-1] = 1
	}
	return nil
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// VmHWM high-water mark, so the next peakRSS reads one phase only.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// cpuTicks reads the machine's CPU time and the part of it the hypervisor
// stole for other guests, from the aggregate line of /proc/stat.
func cpuTicks() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// cpuTime is the CPU time every thread of the process has used so far. The
// hypervisor's stolen time is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() (float64, error) {
	b := obs.PeakRSSBytes()
	if b <= 0 {
		return 0, errors.New("peak RSS unavailable (no VmHWM in /proc/self/status)")
	}
	return float64(b) / (1 << 20), nil
}

// build runs the phase behind build_s: edge list on disk to a spanner
// artifact durable on disk.
func (r *run) build(ctx context.Context, reg *mpcspanner.Metrics) (*buildOut, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	out := &buildOut{}
	root := r.tr.begin("pipeline.build", 0, 0)
	start, cpu0 := time.Now(), cpuTime()

	sp := r.tr.begin("artifact.convert", root.id(), 0)
	if _, err := artifact.Convert(r.edgesPath, r.inputPath); err != nil {
		return nil, err
	}
	sp.end()
	out.convertS = time.Since(start).Seconds()
	sp = r.tr.begin("artifact.open_input", root.id(), 0)
	in, err := mpcspanner.Open(ctx, r.inputPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	sp.end()

	opts := []mpcspanner.Option{
		mpcspanner.WithAlgorithm(mpcspanner.AlgoMPC),
		mpcspanner.WithK(r.k), mpcspanner.WithT(r.t), mpcspanner.WithSeed(graphSeed),
		mpcspanner.WithMetrics(reg),
	}
	if r.w.budget > 0 {
		opts = append(opts, mpcspanner.WithMemoryBudget(int64(r.w.budget*float64(2*r.m*tupleBytes))))
	}
	type mark struct {
		stage string
		at    time.Time
	}
	var marks []mark
	if r.tr != nil {
		opts = append(opts, mpcspanner.WithProgress(func(ev mpcspanner.ProgressEvent) {
			marks = append(marks, mark{ev.Stage, time.Now()})
		}))
	}
	bs := r.tr.begin("mpc.build", root.id(), 0)
	bstart := time.Now()
	res, err := mpcspanner.Build(ctx, in.Graph(), opts...)
	if err != nil {
		return nil, err
	}
	bs.end()
	out.buildS = time.Since(bstart).Seconds()

	sp = r.tr.begin("artifact.save", root.id(), 0)
	sstart := time.Now()
	if err := res.Save(r.spannerPath); err != nil {
		return nil, err
	}
	out.saveS = time.Since(sstart).Seconds()
	sp.end()
	out.seconds, out.cpuS = time.Since(start).Seconds(), (cpuTime() - cpu0).Seconds()
	root.end()
	if out.rssMB, err = peakRSSMiB(); err != nil {
		return nil, err
	}

	out.edges = res.Size()
	out.edgeHash = hashIDs(res.EdgeIDs)
	out.mpc = *res.MPC
	out.mpc.EdgeIDs = nil // the replica must not keep the build's result alive
	if g, ok := reg.Snapshot().Gauge("extmem_resident_peak_bytes"); ok {
		out.residentPeakBytes = g
	}
	// Each progress event closes the interval since the previous one: a
	// grow iteration, a contraction, or the final dedup pass.
	prev := bstart
	for _, mk := range marks {
		d := mk.at.Sub(prev).Seconds()
		switch mk.stage {
		case "mpc-grow":
			out.growS += d
			out.iterMaxS = max(out.iterMaxS, d)
		case "mpc-contract":
			out.contractS += d
		}
		r.tr.record("mpc."+strings.TrimPrefix(mk.stage, "mpc-"), bs.id(), prev, mk.at)
		prev = mk.at
	}
	return out, nil
}

func hashIDs(ids []int) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(b[:], uint64(id))
		h.Write(b[:])
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// replica is one serving process's worth of state, set up the way
// `oracled serve -load` sets it up, on a loopback listener.
type replica struct {
	art    *mpcspanner.Artifact
	sess   *mpcspanner.Session
	hs     *http.Server
	served chan error
	gen    *loadgen
	openMS float64
}

// startReplica runs the phase behind setup_s: spanner artifact to a warm
// replica. The warm-up fills the hot set on a hot workload; otherwise it
// ends at the first answer.
func (r *run) startReplica(ctx context.Context, reg *mpcspanner.Metrics) (*replica, time.Duration, *outcome, error) {
	root := r.tr.begin("pipeline.setup", 0, 0)
	start := time.Now()
	rep := &replica{}
	sp := r.tr.begin("artifact.open", root.id(), 0)
	art, err := mpcspanner.Open(ctx, r.spannerPath)
	if err != nil {
		return nil, 0, nil, err
	}
	sp.end()
	rep.art = art
	rep.openMS = ms(time.Since(start))

	sp = r.tr.begin("oracle.serve", root.id(), 0)
	sess, err := mpcspanner.Serve(ctx, nil, mpcspanner.WithArtifact(art),
		mpcspanner.WithCacheRows(r.w.cacheRows), mpcspanner.WithMetrics(reg))
	if err != nil {
		art.Close()
		return nil, 0, nil, err
	}
	sp.end()
	rep.sess = sess

	sp = r.tr.begin("server.listen", root.id(), 0)
	ceil := max(sess.CacheRows()/4, 4)
	var backend server.Backend = sess
	if r.tr != nil {
		backend = tracedBackend{sess: sess, r: r.tr}
	}
	sssp := sess.SSSP()
	fp := art.Fingerprint()
	srv := server.New(server.Config{
		Backend: backend, Graph: sess.Served(), Metrics: reg,
		MaxInflight: ceil, QueueWait: queueWait,
		Artifact: &server.ArtifactInfo{Algorithm: fp.Algorithm, Seed: fp.Seed, K: fp.K, T: fp.T,
			Gamma: fp.Gamma, Workers: fp.Workers, Checksum: art.Checksum(),
			Rows: artifact.RowsOf(art).Len(), Mapped: art.Mapped()},
		SSSP: &server.SSSPInfo{Engine: sssp.Engine, Delta: sssp.Delta},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		art.Close()
		return nil, 0, nil, err
	}
	var h http.Handler = srv.Handler()
	if r.tr != nil {
		h = r.tr.wrapHandler(h)
	}
	rep.hs = &http.Server{Handler: h}
	rep.served = make(chan error, 1)
	go func() { rep.served <- rep.hs.Serve(l) }()
	base := "http://" + l.Addr().String()
	rep.gen = newLoadgen(base, conns, r.tr, r.reqs)
	if err := rep.healthy(ctx, base); err != nil {
		rep.close()
		return nil, 0, nil, err
	}
	sp.end()

	warm := rep.gen.run(ctx, r.warmupPhase(root.id()))
	setup := time.Since(start)
	root.end()
	r.reqs = rep.gen.reqs.Load()
	return rep, setup, warm, nil
}

func (rep *replica) healthy(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := rep.gen.clients[0].Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz answered %d", resp.StatusCode)
	}
	return nil
}

// close stops the listener and every connection, waits for the serving
// goroutine, and unmaps the artifact.
func (rep *replica) close() error {
	rep.gen.close()
	err := rep.hs.Close()
	if serr := <-rep.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := rep.art.Close(); err == nil {
		err = cerr
	}
	return err
}

// warmupPhase fills the hot set, 64 distinct hot sources per request, or
// asks for one answer on a workload without one.
func (r *run) warmupPhase(parent int64) phase {
	if r.hot == nil {
		return phase{name: "warmup", count: 1, pairs: r.trafficPairs(0), parent: parent}
	}
	const per = 64
	return phase{name: "warmup", count: (len(r.hot) + per - 1) / per, parent: parent,
		pairs: func(i int, dst []pair) []pair {
			rng := xrand.Split(r.seed, tagTraffic, 0, uint64(i))
			for _, u := range r.hot[i*per : min((i+1)*per, len(r.hot))] {
				dst = append(dst, pair{u, rng.Intn(r.n)})
			}
			return dst
		}}
}

// trafficPairs draws request i of the phase tagged tag from the seed as it
// is sent, so no trace is held in memory.
func (r *run) trafficPairs(tag uint64) func(i int, dst []pair) []pair {
	return func(i int, dst []pair) []pair {
		rng := xrand.Split(r.seed, tagTraffic, tag, uint64(i))
		for range r.w.batch {
			u := 0
			if r.hot != nil {
				u = r.hot[sort.SearchFloat64s(r.zipfCDF, rng.Float64())]
			} else {
				u = rng.Intn(r.n)
			}
			dst = append(dst, pair{u, rng.Intn(r.n)})
		}
		return dst
	}
}

// sampled keeps one request in 32 for the bit-identity check.
func (r *run) sampled(tag uint64) func(i int) bool {
	return func(i int) bool { return xrand.CoinAt(1.0/32, r.seed, tagSample, tag, uint64(i)) }
}

// solverOptions are the session's resolved row-fill engine options.
func solverOptions(sess *mpcspanner.Session) (dist.SolverOptions, error) {
	info := sess.SSSP()
	e, err := dist.ParseEngine(info.Engine)
	if err != nil {
		return dist.SolverOptions{}, err
	}
	return dist.SolverOptions{Engine: e, Delta: info.Delta}, nil
}

// fillMS times direct row fills on a fixed sample of the workload's
// sources, outside the server and the cache, and returns their median.
func (r *run) fillMS(sess *mpcspanner.Session) (float64, error) {
	opt, err := solverOptions(sess)
	if err != nil {
		return 0, err
	}
	s := dist.NewSolver(sess.Served(), opt)
	srcs := r.hot
	if srcs == nil {
		srcs = xrand.Split(graphSeed, tagFill).Perm(r.n)
	}
	var times []float64
	for _, src := range srcs[:min(16, len(srcs))] {
		sp := r.tr.begin("dist.row", 0, 0)
		t0 := time.Now()
		s.Row(src)
		times = append(times, ms(time.Since(t0)))
		sp.end()
	}
	return median(times), nil
}

func (r *run) path(name string) string { return filepath.Join(r.dir, name) }
