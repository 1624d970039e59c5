// Command spanner builds a spanner for a generated or file-loaded graph and
// reports the structural costs the paper's theorems bound:
//
//	go run ./cmd/spanner -gen gnp -n 100000 -deg 12 -k 16 -t 4
//	go run ./cmd/spanner -in graph.txt -algo baswana-sen -k 8
//	go run ./cmd/spanner -gen grid -n 40000 -k 8 -mpc -gamma 0.5
//
// Ctrl-C cancels the build gracefully: the construction loop stops at its
// next checkpoint and the command reports how far it got instead of dying
// mid-allocation.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"

	"mpcspanner"
	"mpcspanner/cmd/internal/cliutil"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/graph"
	"mpcspanner/internal/spanner"
)

func main() {
	gc := cliutil.GraphFlags(flag.CommandLine)
	ac := cliutil.ArtifactFlags(flag.CommandLine)
	algo := flag.String("algo", "general", "general|cluster-merge|sqrt-k|baswana-sen|unweighted")
	k := flag.Int("k", 8, "stretch parameter")
	t := flag.Int("t", 0, "epoch length (0 = log k default)")
	useMPC := flag.Bool("mpc", false, "run on the simulated MPC cluster and report rounds")
	gamma := flag.Float64("gamma", 0.5, "memory exponent for -mpc")
	verify := flag.Int("verify", 2000, "edges to sample for stretch verification (0 = skip)")
	progress := flag.Bool("progress", false, "print per-iteration progress to stderr")
	out := flag.String("out", "", "write the spanner subgraph to this file")
	mem := cliutil.MemoryFlag(flag.CommandLine)
	met := cliutil.MetricsFlag()
	flag.Parse()
	if err := ac.Validate(); err != nil {
		log.Fatal(err)
	}
	budget, err := mem.Budget([]string{"load"}, "mpc")
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if ac.Load != "" {
		inspectArtifact(ctx, ac.Load, *out)
		return
	}

	g, err := gc.Make(false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	opts := []mpcspanner.Option{
		mpcspanner.WithK(*k),
		mpcspanner.WithSeed(gc.Seed),
		mpcspanner.WithMetrics(met.Registry()),
	}
	if *t > 0 {
		opts = append(opts, mpcspanner.WithT(*t))
	}
	var last atomic.Pointer[mpcspanner.ProgressEvent]
	track := func(ev mpcspanner.ProgressEvent) {
		last.Store(&ev)
		if *progress {
			fmt.Fprintf(os.Stderr, "progress: %s %s %d/%d (supernodes=%d edges=%d)\n",
				ev.Algorithm, ev.Stage, ev.Iteration, ev.TotalIterations, ev.Supernodes, ev.SpannerEdges)
		}
	}
	opts = append(opts, mpcspanner.WithProgress(track))

	mpcT := *t
	if mpcT <= 0 {
		mpcT = spanner.DefaultT(*k) // the historical ⌈log₂ k⌉ default of -mpc mode
	}
	switch {
	case *useMPC:
		opts = append(opts, mpcspanner.WithAlgorithm(mpcspanner.AlgoMPC),
			mpcspanner.WithGamma(*gamma), mpcspanner.WithT(mpcT))
		if budget > 0 {
			opts = append(opts, mpcspanner.WithMemoryBudget(budget))
		}
	case *algo == "unweighted":
		opts = append(opts, mpcspanner.WithAlgorithm(mpcspanner.AlgoUnweighted))
	default:
		opts = append(opts, mpcspanner.WithAlgorithm(mpcspanner.Algorithm(*algo)), mpcspanner.WithMeasureRadius())
	}

	res, err := mpcspanner.Build(ctx, g, opts...)
	if err != nil {
		if errors.Is(err, mpcspanner.ErrCanceled) {
			reportCanceled(last.Load())
		}
		log.Fatal(err)
	}

	var bound float64
	switch {
	case res.MPC != nil:
		m := res.MPC
		fmt.Printf("mpc: rounds=%d machines=%d S=%d peakLoad=%d sorts=%d treeOps=%d moved=%d\n",
			m.Rounds, m.Machines, m.MemoryPerMachine, m.PeakMachineLoad, m.Sorts, m.TreeOps, m.TuplesMoved)
		if m.MemoryBudget > 0 {
			fmt.Printf("extmem: budget=%d spilled=%d runs=%d mergePasses=%d\n",
				m.MemoryBudget, m.SpilledBytes, m.SpillRuns, m.MergePasses)
		}
		bound = mpcspanner.StretchBound(*k, mpcT)
	case res.Unweighted != nil:
		u := res.Unweighted
		fmt.Printf("unweighted: sparse=%d dense=%d |Z|=%d rounds=%d\n",
			u.SparseCount, u.DenseCount, u.HittingSetSize, u.Rounds)
		bound = u.StretchBound
	default:
		st := res.Stats
		fmt.Printf("%s: k=%d t=%d iterations=%d epochs=%d phase1=%d phase2=%d radiusHops=%d\n",
			st.Algorithm, st.K, st.T, st.Iterations, st.Epochs, st.Phase1Edges, st.Phase2Edges,
			st.Radius.MaxHops)
		bound = mpcspanner.StretchBound(st.K, st.T)
		if st.Algorithm == "baswana-sen" {
			bound = float64(2*st.K - 1)
		}
	}
	report(g, res.EdgeIDs, bound, *verify, gc.Seed, *out)
	if ac.Save != "" {
		if err := res.Save(ac.Save); err != nil {
			log.Fatal(err)
		}
		a, err := mpcspanner.Open(ctx, ac.Save)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("artifact: saved to %s checksum=%s fingerprint=%s\n",
			ac.Save, a.Checksum(), a.Fingerprint())
		a.Close()
	}
	if err := met.Dump(); err != nil {
		log.Fatal(err)
	}
}

// inspectArtifact is the -load mode: open (verifying every checksum), report
// identity and shape, and optionally dump the contained graph.
func inspectArtifact(ctx context.Context, path, out string) {
	a, err := mpcspanner.Open(ctx, path)
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	g := a.Graph()
	srcN, srcM := a.SourceShape()
	fmt.Printf("artifact: %s checksum=%s mapped=%v\n", path, a.Checksum(), a.Mapped())
	fmt.Printf("fingerprint: %s\n", a.Fingerprint())
	fmt.Printf("graph: n=%d m=%d (source n=%d m=%d, %d edge ids recorded)\n",
		g.N(), g.M(), srcN, srcM, len(a.EdgeIDs()))
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := g.Write(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote graph to %s\n", out)
	}
}

// reportCanceled prints how far an interrupted build got before its context
// was honored.
func reportCanceled(ev *mpcspanner.ProgressEvent) {
	if ev == nil {
		fmt.Fprintln(os.Stderr, "canceled before the first checkpoint")
		return
	}
	fmt.Fprintf(os.Stderr, "canceled at %s %s %d/%d: %d spanner edges selected so far\n",
		ev.Algorithm, ev.Stage, ev.Iteration, ev.TotalIterations, ev.SpannerEdges)
}

func report(g *graph.Graph, ids []int, bound float64, verify int, seed uint64, out string) {
	ratio := float64(len(ids)) / float64(g.M())
	fmt.Printf("spanner: %d edges (%.1f%% of input), certified stretch <= %.2f\n",
		len(ids), 100*ratio, bound)
	if verify > 0 {
		h := g.Subgraph(ids)
		rep, err := dist.SampledEdgeStretch(g, h, verify, seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("verify: %d edges sampled, max stretch %.3f, mean %.3f (bound %.2f)\n",
			rep.Checked, rep.Max, rep.Mean, bound)
		if rep.Max > bound+1e-9 {
			log.Fatalf("STRETCH VIOLATION: measured %.3f > bound %.3f", rep.Max, bound)
		}
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := g.Subgraph(ids).Write(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote spanner to %s\n", out)
	}
}
