// Package cliutil holds the flag-level helpers the cmd/* drivers share, so
// the generator vocabulary stays identical across CLIs, and the one session
// opener the serving CLIs share, so they serve through the same Serve call.
package cliutil

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"mpcspanner"
	"mpcspanner/internal/core"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/obs"
)

// MakeGraph loads a graph from file when in is non-empty, otherwise
// generates one: gnp|grid|torus|pa|rgg|cycle on n vertices with average (or
// attachment) degree deg and weights uniform in [1, maxW) (unit weights when
// maxW <= 1). With connectify, disconnected outputs are bridged (weight
// maxW) so every distance is finite — the oracle CLI wants that; the
// spanner CLI serves disconnected inputs as-is.
func MakeGraph(in, gen string, n int, deg, maxW float64, seed uint64, connectify bool) (g *graph.Graph, err error) {
	// Generators and Connectify build through graph.MustNew. Weights drawn
	// up to a huge -maxw, or bridges at a file's own weight scale, can take
	// the weight sum out of New's domain: report New's error, not a panic.
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *core.OptionError:
			g, err = nil, r
		default:
			panic(r)
		}
	}()
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		g, err := graph.ReadFrom(in, f)
		if err != nil {
			return nil, err
		}
		if connectify {
			// Bridge at the file's own weight scale, not the -maxw flag:
			// a bridge lighter than real edges would fabricate plausible
			// short cross-component distances.
			bridge := 1.0
			for _, e := range g.Edges() {
				if e.W > bridge {
					bridge = e.W
				}
			}
			g = graph.Connectify(g, bridge)
		}
		return g, nil
	}
	w := graph.UnitWeight
	if maxW > 1 {
		w = graph.UniformWeight(1, maxW)
	}
	side := int(math.Sqrt(float64(n)))
	switch gen {
	case "gnp":
		g = graph.GNP(n, deg/float64(n), w, seed)
	case "grid":
		g = graph.Grid(side, side, w, seed)
	case "torus":
		g = graph.Torus(side, side, w, seed)
	case "pa":
		g = graph.PreferentialAttachment(n, int(math.Max(1, deg)), w, seed)
	case "rgg":
		g = graph.RandomGeometric(n, math.Sqrt(deg/(math.Pi*float64(n))), true, w, seed)
	case "cycle":
		g = graph.Cycle(n, w, seed)
	default:
		return nil, fmt.Errorf("unknown generator %q", gen)
	}
	if connectify {
		g = graph.Connectify(g, math.Max(1, maxW))
	}
	return g, nil
}

// GraphConfig holds the shared graph-selection flags (-gen, -in, -n, -deg,
// -maxw, -seed) after parsing. Register them with GraphFlags; materialize
// the graph with Make. Keeping the registration in one place is what makes
// the flag vocabulary identical across cmd/oracle, cmd/oracled serve, and
// any future driver.
type GraphConfig struct {
	Gen  string
	In   string
	N    int
	Deg  float64
	MaxW float64
	Seed uint64
}

// GraphFlags registers the shared graph-selection flags on fs (use
// flag.CommandLine for single-command drivers, a subcommand's own FlagSet
// otherwise) and returns the config the parsed values land in.
func GraphFlags(fs *flag.FlagSet) *GraphConfig {
	c := &GraphConfig{}
	fs.StringVar(&c.Gen, "gen", "gnp", "generator: gnp|grid|torus|pa|rgg|cycle")
	fs.StringVar(&c.In, "in", "", "read graph from an edge list, native 'n'/'e' or DIMACS 'p sp'/'a' (overrides -gen)")
	fs.IntVar(&c.N, "n", 10000, "vertices")
	fs.Float64Var(&c.Deg, "deg", 10, "average degree (gnp) / attachment degree (pa)")
	fs.Float64Var(&c.MaxW, "maxw", 100, "maximum edge weight (1 = unweighted)")
	fs.Uint64Var(&c.Seed, "seed", 1, "random seed")
	return c
}

// Make materializes the configured graph via MakeGraph. Call after the
// FlagSet has parsed.
func (c *GraphConfig) Make(connectify bool) (*graph.Graph, error) {
	return MakeGraph(c.In, c.Gen, c.N, c.Deg, c.MaxW, c.Seed, connectify)
}

// ArtifactConfig holds the shared artifact persistence flags (-save, -load)
// after parsing. Register them with ArtifactFlags next to GraphFlags;
// Validate enforces the cross-flag rules after parsing. -load replaces the
// generator path entirely, so combining it with any explicitly set graph
// flag — or with -save, which needs a build to save — is a configuration
// error, reported as a typed *core.OptionError like every other rejected
// option.
type ArtifactConfig struct {
	Save string
	Load string
	fs   *flag.FlagSet
}

// ArtifactFlags registers -save and -load on fs and returns the config the
// parsed values land in.
func ArtifactFlags(fs *flag.FlagSet) *ArtifactConfig {
	c := &ArtifactConfig{fs: fs}
	fs.StringVar(&c.Save, "save", "", "save the built spanner as a versioned artifact at this path")
	fs.StringVar(&c.Load, "load", "", "serve a saved artifact instead of generating and building (conflicts with graph flags)")
	return c
}

// graphFlagNames are the GraphFlags names that conflict with -load.
var graphFlagNames = map[string]bool{
	"gen": true, "in": true, "n": true, "deg": true, "maxw": true, "seed": true,
}

// Validate enforces the flag-combination rules. Call after fs.Parse.
func (c *ArtifactConfig) Validate() error {
	if c.Load == "" {
		return nil
	}
	if c.Save != "" {
		return &core.OptionError{Field: "-save", Value: c.Save,
			Reason: "conflicts with -load (nothing is built to save)"}
	}
	var conflict error
	c.fs.Visit(func(f *flag.Flag) {
		if conflict == nil && graphFlagNames[f.Name] {
			conflict = &core.OptionError{Field: "-" + f.Name, Value: f.Value.String(),
				Reason: "conflicts with -load (the artifact is the graph)"}
		}
	})
	return conflict
}

// ServeConfig holds the session flags cmd/oracle and `oracled serve` share
// (-exact, -t, -rows, -workers, -memory) after parsing. Register them with
// ServeFlags next to GraphFlags and ArtifactFlags, check them with
// Validate, and open the session with Open.
type ServeConfig struct {
	Exact   bool
	T       int
	Rows    int
	Workers int
	mem     *MemoryConfig
	budget  int64
	fs      *flag.FlagSet
}

// ServeFlags registers the session flags on fs and returns the config the
// parsed values land in.
func ServeFlags(fs *flag.FlagSet) *ServeConfig {
	c := &ServeConfig{mem: MemoryFlag(fs), fs: fs}
	fs.BoolVar(&c.Exact, "exact", false, "serve exact distances on the input graph (skip the spanner build)")
	fs.IntVar(&c.T, "t", 0, "epoch length of the spanner build (0 = Corollary 1.4's default; rejected where nothing is built)")
	fs.IntVar(&c.Rows, "rows", 0, "cache budget in resident rows (0 = default: 1024, at most 64 MiB of rows)")
	fs.IntVar(&c.Workers, "workers", 0, "worker pool size of the spanner build and of each query batch (0 = GOMAXPROCS)")
	return c
}

// Validate resolves -memory, which conflicts with -exact and -load (no
// build runs there). Call after fs.Parse, before any expensive work.
func (c *ServeConfig) Validate() (err error) {
	c.budget, err = c.mem.Budget([]string{"exact", "load"}, "")
	return err
}

// Open opens the session the flags select, with one Serve call per mode:
// WithArtifact when art is non-nil (-load), WithExact under -exact, and
// otherwise Serve's own Corollary 1.4 pipeline over g, built with seed at
// k = ⌈log₂ n⌉. Every mode gets -rows, -workers and reg. -t is passed
// whenever it was set, so a mode that builds nothing rejects it with a
// typed *OptionError. A pipeline session reports its build on w.
func (c *ServeConfig) Open(ctx context.Context, g *mpcspanner.Graph, art *mpcspanner.Artifact,
	seed uint64, reg *mpcspanner.Metrics, w io.Writer) (*mpcspanner.Session, error) {
	opts := []mpcspanner.Option{
		mpcspanner.WithCacheRows(c.Rows), mpcspanner.WithWorkers(c.Workers),
		mpcspanner.WithMetrics(reg),
	}
	c.fs.Visit(func(f *flag.Flag) {
		if f.Name == "t" {
			opts = append(opts, mpcspanner.WithT(c.T))
		}
	})
	switch {
	case art != nil:
		return mpcspanner.Serve(ctx, nil, append(opts, mpcspanner.WithArtifact(art))...)
	case c.Exact:
		return mpcspanner.Serve(ctx, g, append(opts, mpcspanner.WithExact())...)
	}
	opts = append(opts, mpcspanner.WithSeed(seed))
	if c.budget > 0 {
		opts = append(opts, mpcspanner.WithMemoryBudget(c.budget))
	}
	start := time.Now()
	s, err := mpcspanner.Serve(ctx, g, opts...)
	if err != nil {
		return nil, err
	}
	a := s.APSP()
	fmt.Fprintf(w, "spanner: k=%d %d/%d edges, stretch <= %.2f, %d simulated rounds, built in %v\n",
		a.K, a.SpannerSize, g.M(), a.Bound, a.BuildRounds, time.Since(start).Round(time.Millisecond))
	if a.MemoryBudget > 0 {
		fmt.Fprintf(w, "extmem: budget=%d spilled=%d runs=%d mergePasses=%d\n",
			a.MemoryBudget, a.SpilledBytes, a.SpillRuns, a.MergePasses)
	}
	return s, nil
}

// MemoryConfig holds the shared -memory flag after parsing: the byte budget
// on the MPC build's resident tuple store (out-of-core builds, see
// mpcspanner.WithMemoryBudget). Register it with MemoryFlag; resolve with
// Budget after the FlagSet has parsed.
type MemoryConfig struct {
	Spec string
	fs   *flag.FlagSet
}

// MemoryFlag registers -memory on fs and returns the config the parsed
// value lands in.
func MemoryFlag(fs *flag.FlagSet) *MemoryConfig {
	c := &MemoryConfig{fs: fs}
	fs.StringVar(&c.Spec, "memory", "",
		"byte budget for the MPC build's resident tuples, spilling past it to disk"+
			" (e.g. 512MiB, 2GiB, 64K; empty = fully resident)")
	return c
}

// ParseBytes parses a human byte size: a positive integer with an optional
// binary-unit suffix KiB/MiB/GiB (or the shorthand K/M/G — also binary),
// case-insensitive. Plain digits are bytes.
func ParseBytes(s string) (int64, error) {
	digits := 0
	for digits < len(s) && s[digits] >= '0' && s[digits] <= '9' {
		digits++
	}
	if digits == 0 {
		return 0, fmt.Errorf("size %q must start with digits", s)
	}
	var n int64
	for _, d := range s[:digits] {
		if n > (math.MaxInt64-int64(d-'0'))/10 {
			return 0, fmt.Errorf("size %q overflows", s)
		}
		n = n*10 + int64(d-'0')
	}
	var shift uint
	switch suffix := s[digits:]; {
	case suffix == "" || eqFold(suffix, "B"):
	case eqFold(suffix, "K") || eqFold(suffix, "KiB"):
		shift = 10
	case eqFold(suffix, "M") || eqFold(suffix, "MiB"):
		shift = 20
	case eqFold(suffix, "G") || eqFold(suffix, "GiB"):
		shift = 30
	default:
		return 0, fmt.Errorf("size %q has unknown unit %q (want KiB, MiB, or GiB)", s, suffix)
	}
	if n > math.MaxInt64>>shift {
		return 0, fmt.Errorf("size %q overflows", s)
	}
	n <<= shift
	if n <= 0 {
		return 0, fmt.Errorf("size %q must be positive", s)
	}
	return n, nil
}

// eqFold is strings.EqualFold for the pure-ASCII unit suffixes.
func eqFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		a, b := s[i], t[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// Budget resolves -memory to a byte budget (0 when the flag was not given).
// conflicts names flags that rule out a budgeted build when set — a daemon
// serving a prebuilt artifact, an exact-mode oracle — and requiresSet, when
// non-empty, names a flag that must be set for -memory to mean anything
// (e.g. cmd/spanner's -mpc: only the MPC plane spills). Violations are
// typed *core.OptionError, like every rejected option.
func (c *MemoryConfig) Budget(conflicts []string, requiresSet string) (int64, error) {
	if c.Spec == "" {
		return 0, nil
	}
	set := map[string]bool{}
	c.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range conflicts {
		if set[name] {
			return 0, &core.OptionError{Field: "-memory", Value: c.Spec,
				Reason: "conflicts with -" + name + " (no MPC build runs, so nothing spills)"}
		}
	}
	if requiresSet != "" && !set[requiresSet] {
		return 0, &core.OptionError{Field: "-memory", Value: c.Spec,
			Reason: "only the MPC plane spills (add -" + requiresSet + ")"}
	}
	n, err := ParseBytes(c.Spec)
	if err != nil {
		return 0, &core.OptionError{Field: "-memory", Value: c.Spec, Reason: err.Error()}
	}
	return n, nil
}

// MetricsSink wires the shared -metrics flag: every CLI that constructs
// spanners or serves distances registers it the same way, so one flag
// vocabulary covers the whole cmd/* family. The zero path means "off" —
// Registry then returns nil and the instrumented libraries run their
// uninstrumented (allocation-free) paths.
type MetricsSink struct {
	path string
	reg  *obs.Registry
}

// MetricsFlag registers -metrics on the default FlagSet and returns the
// sink. Call Registry after flag.Parse to get the registry (nil when the
// flag was not given) and Dump once the run finishes.
func MetricsFlag() *MetricsSink {
	m := &MetricsSink{}
	flag.StringVar(&m.path, "metrics", "",
		"dump Prometheus-text metrics to this file when done ('-' = stderr; off when empty)")
	return m
}

// Registry returns the registry backing the flag, creating it on first use;
// nil when -metrics was not given.
func (m *MetricsSink) Registry() *obs.Registry {
	if m == nil || m.path == "" {
		return nil
	}
	if m.reg == nil {
		m.reg = obs.NewRegistry()
	}
	return m.reg
}

// Dump writes the accumulated series in Prometheus text exposition to the
// flag's destination. A no-op when -metrics was not given.
func (m *MetricsSink) Dump() error {
	if m.Registry() == nil {
		return nil
	}
	if m.path == "-" {
		w := bufio.NewWriter(os.Stderr)
		if err := m.reg.WriteProm(w); err != nil {
			return err
		}
		return w.Flush()
	}
	f, err := os.Create(m.path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := m.reg.WriteProm(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
