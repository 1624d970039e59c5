package main

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"mpcspanner"
	"mpcspanner/internal/dist"
	"mpcspanner/internal/xrand"
)

const (
	maxCheckRows   = 32 // distinct sources the bit-identity check recomputes
	stretchSources = 4  // full exact rows behind stretch_max
	rowChunk       = 8192
)

// verdict collects failed checks; any failure makes the run incorrect.
type verdict struct {
	bad      int
	problems []string
}

func (v *verdict) fail(format string, args ...any) {
	v.bad++
	if len(v.problems) < 10 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// checkAnswers compares sampled wire answers bit for bit with rows computed
// in-process on the served spanner, for up to maxCheckRows sources. It
// returns how many answers it compared.
func checkAnswers(sess *mpcspanner.Session, answers []answer, v *verdict) (int, error) {
	opt, err := solverOptions(sess)
	if err != nil {
		return 0, err
	}
	s := dist.NewSolver(sess.Served(), opt)
	rows := map[int][]float64{}
	checked := 0
	for _, a := range answers {
		row, ok := rows[a.u]
		if !ok {
			if len(rows) == maxCheckRows {
				continue
			}
			row = s.Row(a.u)
			rows[a.u] = row
		}
		if math.Float64bits(row[a.v]) != math.Float64bits(a.d) {
			v.fail("served d(%d,%d) = %v, in-process row has %v", a.u, a.v, a.d, row[a.v])
		}
		checked++
	}
	return checked, nil
}

// checkStretch fetches whole served rows for a few seeded sources over the
// wire, checks them bit for bit against in-process spanner rows, and
// divides them by exact rows of the input graph. It returns the largest
// ratio, which must stay within the certified StretchBound(k, t).
func (r *run) checkStretch(ctx context.Context, rep *replica, v *verdict) (float64, error) {
	in, err := mpcspanner.Open(ctx, r.inputPath)
	if err != nil {
		return 0, err
	}
	defer in.Close()
	opt, err := solverOptions(rep.sess)
	if err != nil {
		return 0, err
	}
	exact := dist.NewSolver(in.Graph(), opt)
	local := dist.NewSolver(rep.sess.Served(), opt)
	worst := 0.0
	for _, s := range xrand.Split(graphSeed, tagStretch).Perm(r.n)[:min(stretchSources, r.n)] {
		served, err := rep.fetchRow(ctx, s, r.n)
		if err != nil {
			return 0, err
		}
		want, ex := local.Row(s), exact.Row(s)
		for u, d := range served {
			if math.Float64bits(d) != math.Float64bits(want[u]) {
				v.fail("served d(%d,%d) = %v, in-process row has %v", s, u, d, want[u])
			}
			if u == s || math.IsInf(ex[u], 1) {
				continue
			}
			if d < ex[u] {
				v.fail("served d(%d,%d) = %v is below the exact distance %v", s, u, d, ex[u])
			}
			worst = max(worst, d/ex[u])
		}
	}
	if bound := mpcspanner.StretchBound(r.k, r.t); worst > bound {
		v.fail("stretch %.4f exceeds StretchBound(%d, %d) = %.4f", worst, r.k, r.t, bound)
	}
	return worst, nil
}

// fetchRow asks the replica for d(src, u) for every vertex u.
func (rep *replica) fetchRow(ctx context.Context, src, n int) ([]float64, error) {
	var body []byte
	var resp bytes.Buffer
	var ps []pair
	row := make([]float64, 0, n)
	for lo := 0; lo < n; lo += rowChunk {
		ps = ps[:0]
		for u := lo; u < min(lo+rowChunk, n); u++ {
			ps = append(ps, pair{src, u})
		}
		body = appendQuery(body[:0], ps)
		status, err := rep.gen.post(ctx, rep.gen.clients[0], body, &resp, 0, 0)
		if err != nil {
			return nil, err
		}
		if status != 200 {
			return nil, fmt.Errorf("row %d: status %d: %s", src, status, bytes.TrimSpace(resp.Bytes()))
		}
		before := len(row)
		if row, err = parseDistances(resp.Bytes(), row); err != nil {
			return nil, err
		}
		if len(row)-before != len(ps) {
			return nil, fmt.Errorf("row %d: %d distances for %d pairs", src, len(row)-before, len(ps))
		}
	}
	return row, nil
}
