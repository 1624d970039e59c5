// Command apsp demonstrates the paper's distance-approximation application
// (Section 7 / Corollary 1.4): it builds the near-linear-size spanner on the
// simulated MPC cluster, collects it to one machine, and answers distance
// queries with the certified O(log^{1+o(1)} n) approximation.
//
//	go run ./cmd/apsp -n 5000 -deg 10 -queries 5
//	go run ./cmd/apsp -n 5000 -clique        # Corollary 1.5 in the Congested Clique
//
// Ctrl-C cancels the build at its next simulated-round checkpoint and
// reports how far it got.
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
)

func main() {
	n := flag.Int("n", 5000, "vertices")
	deg := flag.Float64("deg", 10, "average degree")
	maxW := flag.Float64("maxw", 100, "maximum edge weight (1 = unweighted)")
	t := flag.Int("t", 0, "epoch length (0 = Corollary 1.4 default loglog n)")
	seed := flag.Uint64("seed", 1, "random seed")
	queries := flag.Int("queries", 3, "sample source vertices to query and check")
	clique := flag.Bool("clique", false, "run the Congested Clique variant (Corollary 1.5; not instrumented by -metrics)")
	met := cliutil.MetricsFlag()
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	g, err := cliutil.MakeGraph("", "gnp", *n, *deg, *maxW, *seed, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: n=%d m=%d\n", g.N(), g.M())

	var last atomic.Pointer[mpcspanner.ProgressEvent]

	if *clique {
		res, err := mpcspanner.ApproxAPSPCongestedCliqueCtx(ctx, g,
			mpcspanner.WithSeed(*seed),
			mpcspanner.WithProgress(func(ev mpcspanner.ProgressEvent) { last.Store(&ev) }))
		if err != nil {
			fatal(err, last.Load())
		}
		fmt.Printf("congested clique: k=%d t=%d spannerRounds=%d collectRounds=%d total=%d\n",
			res.K, res.T, res.SpannerRounds, res.CollectionRounds, res.Rounds)
		fmt.Printf("spanner: %d edges, certified approximation <= %.2f\n",
			len(res.SpannerEdgeIDs), res.Bound)
		rep, err := res.MeasureApproximation(*queries, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("measured over %d pairs: max %.3f, mean %.3f\n", rep.Checked, rep.Max, rep.Mean)
		return
	}

	s, err := mpcspanner.Serve(ctx, g,
		mpcspanner.WithSeed(*seed), mpcspanner.WithT(*t),
		mpcspanner.WithProgress(func(ev mpcspanner.ProgressEvent) { last.Store(&ev) }),
		mpcspanner.WithMetrics(met.Registry()))
	if err != nil {
		fatal(err, last.Load())
	}
	res := s.APSP()
	fmt.Printf("mpc: k=%d t=%d buildRounds=%d collectRounds=%d total=%d\n",
		res.K, res.T, res.BuildRounds, res.CollectRounds, res.Rounds)
	fmt.Printf("spanner: %d edges, fits Õ(n)=%d words on one machine: %v, bound <= %.2f\n",
		res.SpannerSize, res.CollectorWords, res.FitsOneMachine, res.Bound)

	for q := 0; q < *queries; q++ {
		src := int(uint64(q)*2654435761+*seed) % g.N()
		approx, err := s.Row(ctx, src)
		if err != nil {
			log.Fatal(err)
		}
		exact := dist.Dijkstra(g, src)
		worst, at := 0.0, -1
		for v := range exact {
			if exact[v] > 0 && exact[v] != dist.Inf {
				if r := approx[v] / exact[v]; r > worst {
					worst, at = r, v
				}
			}
		}
		fmt.Printf("query src=%d: worst ratio %.3f (at vertex %d)\n", src, worst, at)
	}
	if err := met.Dump(); err != nil {
		log.Fatal(err)
	}
}

// fatal reports an interrupted or failed build, including partial progress
// when the failure was a cancellation.
func fatal(err error, ev *mpcspanner.ProgressEvent) {
	if errors.Is(err, mpcspanner.ErrCanceled) {
		if ev != nil {
			fmt.Fprintf(os.Stderr, "canceled at %s %d/%d: %d simulated rounds, %d spanner edges so far\n",
				ev.Stage, ev.Iteration, ev.TotalIterations, ev.Rounds, ev.SpannerEdges)
		} else {
			fmt.Fprintln(os.Stderr, "canceled before the first checkpoint")
		}
	}
	log.Fatal(err)
}
