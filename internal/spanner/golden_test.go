package spanner

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"mpcspanner/internal/graph"
)

// goldenEngineHashes are FNV-64a digests of every engine family's EdgeIDs
// and Stats (plus WHPStats for general-whp, whose Stats are hashed without
// Probabilities) on three fixed graphs. They were recorded from the engine
// before Theorem 8.1 ran through the shared Phase 1 loop, so any change to
// what a family selects, in Phase 1, classic Phase 2, the WHP run choice or
// the Appendix B assembly, fails here at both worker counts.
var goldenEngineHashes = map[string]uint64{
	"general/gnp-weighted":       0x0e4c8eafd0d70d94,
	"cluster-merge/gnp-weighted": 0x984331acb73b45f9,
	"sqrt-k/gnp-weighted":        0xa800f5cc88d631d6,
	"baswana-sen/gnp-weighted":   0x5d4d3ceefc8d7e96,
	"general-reps/gnp-weighted":  0xfd085cb7adc27a58,
	"general-whp/gnp-weighted":   0xe9e32bc36746296d,
	"general/grid-unit":          0x53464449a6f693a6,
	"cluster-merge/grid-unit":    0x90d31f05c5257eb8,
	"sqrt-k/grid-unit":           0x2d668f05b36c8d01,
	"baswana-sen/grid-unit":      0x2de67c4158f4f98a,
	"general-reps/grid-unit":     0x4fab16fc23dba930,
	"general-whp/grid-unit":      0x7c35546973fa1231,
	"unweighted/grid-unit":       0x213289c734df7ad9,
	"general/pa":                 0x3a1e5903f23ec2a4,
	"cluster-merge/pa":           0x423f61670e0d5fe1,
	"sqrt-k/pa":                  0xe54a0a35d3c59a52,
	"baswana-sen/pa":             0xc90413aadb677350,
	"general-reps/pa":            0x4ebd053778c6e2ca,
	"general-whp/pa":             0xfcd4e3b90106eae4,
}

// TestEngineFamiliesGolden pins every family's output to the recorded
// digests at Workers 1 and pinWorkers().
func TestEngineFamiliesGolden(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp-weighted", graph.GNP(400, 0.03, graph.UniformWeight(1, 50), 31)},
		{"grid-unit", graph.Grid(20, 20, graph.UnitWeight, 32)},
		{"pa", graph.PreferentialAttachment(400, 3, graph.UniformWeight(1, 20), 33)},
	}
	type family struct {
		name string
		run  func(g *graph.Graph, workers int) (string, error)
	}
	digest := func(r *Result, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v|%+v", r.EdgeIDs, r.Stats), nil
	}
	families := []family{
		{"general", func(g *graph.Graph, w int) (string, error) {
			return digest(GeneralCtx(context.Background(), g, 8, 2, Options{Seed: 41, Workers: w, MeasureRadius: true}))
		}},
		{"cluster-merge", func(g *graph.Graph, w int) (string, error) {
			return digest(ClusterMergeCtx(context.Background(), g, 8, Options{Seed: 43, Workers: w}))
		}},
		{"sqrt-k", func(g *graph.Graph, w int) (string, error) {
			return digest(SqrtKCtx(context.Background(), g, 9, Options{Seed: 47, Workers: w}))
		}},
		{"baswana-sen", func(g *graph.Graph, w int) (string, error) {
			return digest(BaswanaSenCtx(context.Background(), g, 4, Options{Seed: 53, Workers: w, MeasureRadius: true}))
		}},
		{"general-reps", func(g *graph.Graph, w int) (string, error) {
			return digest(GeneralCtx(context.Background(), g, 6, 2, Options{Seed: 59, Workers: w, Repetitions: 3}))
		}},
		{"general-whp", func(g *graph.Graph, w int) (string, error) {
			r, whp, err := GeneralWHPCtx(context.Background(), g, 8, 2, 0, Options{Seed: 61, Workers: w})
			if err != nil {
				return "", err
			}
			r.Stats.Probabilities = nil
			s, _ := digest(r, nil)
			return fmt.Sprintf("%s|%+v", s, *whp), nil
		}},
	}
	for _, gr := range graphs {
		fams := families
		if gr.g.IsUnit() {
			fams = append(fams[:len(fams):len(fams)], family{"unweighted", func(g *graph.Graph, w int) (string, error) {
				r, err := UnweightedCtx(context.Background(), g, 3, UnweightedOptions{Seed: 67, Workers: w})
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%v|%+v", r.EdgeIDs, r.Stats), nil
			}})
		}
		for _, f := range fams {
			key := f.name + "/" + gr.name
			for _, w := range []int{1, pinWorkers()} {
				s, err := f.run(gr.g, w)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", key, w, err)
				}
				h := fnv.New64a()
				h.Write([]byte(s))
				if got, want := h.Sum64(), goldenEngineHashes[key]; got != want {
					t.Errorf("%s workers=%d: digest %#x, want %#x", key, w, got, want)
				}
			}
		}
	}
}
