// Package cclique simulates the distributed Congested Clique model and
// implements the paper's Section 8 results there: the w.h.p. spanner
// construction of Theorem 8.1 and the sublogarithmic weighted-APSP
// approximation of Corollary 1.5.
//
// Model: n nodes, synchronous rounds; per round, every ordered pair of nodes
// may exchange one Θ(log n)-bit word. [BDH18]'s semi-MPC equivalence lets
// the general spanner algorithm run here with every Lemma 6.1 subroutine
// collapsing to O(1) rounds, because each node's incident edges fit in its
// Θ(n) memory. Lenzen's routing [Len13] delivers any instance in which every
// node sends and receives at most n words in 2 rounds; the package both
// charges and validates those budgets.
package cclique

import (
	"fmt"

	"mpcspanner/internal/par"
)

// Clique is the simulated n-node congested clique with round accounting and
// message-budget validation.
type Clique struct {
	n      int
	rounds int

	// workers backs the per-node message generation and budget validation
	// with a real goroutine pool (par conventions, resolved; default 1).
	// Round accounting and routing results are identical at every count.
	workers int

	routes    int
	wordsSent int64
}

// New returns a clique on n nodes.
func New(n int) (*Clique, error) {
	if n < 1 {
		return nil, fmt.Errorf("cclique: need at least one node, got %d", n)
	}
	return &Clique{n: n, workers: 1}, nil
}

// SetWorkers sizes the goroutine pool the simulated nodes' local work runs
// on (0 selects GOMAXPROCS, 1 forces serial).
func (c *Clique) SetWorkers(w int) { c.workers = par.Workers(w) }

// N returns the node count.
func (c *Clique) N() int { return c.n }

// Rounds returns the rounds charged so far.
func (c *Clique) Rounds() int { return c.rounds }

// Routes returns how many Lenzen routing instances ran.
func (c *Clique) Routes() int { return c.routes }

// WordsSent returns the cumulative words shipped.
func (c *Clique) WordsSent() int64 { return c.wordsSent }

// ChargeRounds charges r raw rounds (for steps whose message pattern is the
// trivial one-word-per-pair exchange, e.g. the sampling-outcome word of
// Theorem 8.1).
func (c *Clique) ChargeRounds(r int) { c.rounds += r }

// Message is a routed word.
type Message struct {
	From, To int32
	Payload  uint64
}

// Lenzen routes an arbitrary message instance in which every node sends at
// most n and receives at most n words, in exactly 2 rounds [Len13]. It
// validates both budgets and returns the messages grouped by destination (in
// stable per-destination order; the per-destination slices share one backing
// array and must be treated as read-only).
//
// Budget counting is the per-node message generation work: it shards the
// message list over the worker pool with per-shard send/receive histograms
// that sum in shard order, so validation outcomes are identical at every
// worker count. Destination grouping is a radix-keyed stable shuffle on the
// destination id (par.RadixSortKeys), so it parallelizes too while keeping
// exactly the order the old serial append produced.
func (c *Clique) Lenzen(msgs []Message) ([][]Message, error) {
	// Shard the counting only when the instance is dense enough to amortize
	// the per-shard histograms and their O(workers·n) merge; below that the
	// serial O(msgs + n) scan is strictly cheaper.
	workers := c.workers
	if len(msgs) < workers*c.n {
		workers = 1
	}
	sent := make([]int, c.n)
	recv := make([]int, c.n)
	if workers <= 1 {
		for i, m := range msgs {
			if m.From < 0 || int(m.From) >= c.n || m.To < 0 || int(m.To) >= c.n {
				return nil, fmt.Errorf("cclique: message endpoint out of range: %+v", msgs[i])
			}
			sent[m.From]++
			recv[m.To]++
		}
	} else {
		type budget struct {
			sent, recv []int
			bad        int // index+1 of an out-of-range message, 0 if none
		}
		parts := make([]budget, workers)
		par.ForShard(workers, len(msgs), func(shard, lo, hi int) {
			b := &parts[shard]
			b.sent = make([]int, c.n)
			b.recv = make([]int, c.n)
			for i := lo; i < hi; i++ {
				m := msgs[i]
				if m.From < 0 || int(m.From) >= c.n || m.To < 0 || int(m.To) >= c.n {
					if b.bad == 0 {
						b.bad = i + 1
					}
					continue
				}
				b.sent[m.From]++
				b.recv[m.To]++
			}
		})
		for i := range parts {
			if parts[i].bad > 0 {
				return nil, fmt.Errorf("cclique: message endpoint out of range: %+v", msgs[parts[i].bad-1])
			}
			if parts[i].sent == nil {
				continue
			}
			for v := 0; v < c.n; v++ {
				sent[v] += parts[i].sent[v]
				recv[v] += parts[i].recv[v]
			}
		}
	}
	for v := 0; v < c.n; v++ {
		if sent[v] > c.n {
			return nil, fmt.Errorf("cclique: node %d sends %d > n=%d words", v, sent[v], c.n)
		}
		if recv[v] > c.n {
			return nil, fmt.Errorf("cclique: node %d receives %d > n=%d words", v, recv[v], c.n)
		}
	}
	out := make([][]Message, c.n)
	if len(msgs) > 0 {
		// Stable radix shuffle by destination: equal destinations keep their
		// input order, so out[to] is identical to what appending in input
		// order produced, at every worker count.
		idx := par.SortIndexByKey(c.workers, len(msgs), func(i int) uint64 { return uint64(msgs[i].To) })
		grouped := make([]Message, len(msgs))
		par.For(c.workers, len(msgs), func(i int) { grouped[i] = msgs[idx[i]] })
		lo := 0
		for hi := 1; hi <= len(grouped); hi++ {
			if hi == len(grouped) || grouped[hi].To != grouped[lo].To {
				out[grouped[lo].To] = grouped[lo:hi:hi]
				lo = hi
			}
		}
	}
	c.rounds += 2
	c.routes++
	c.wordsSent += int64(len(msgs))
	return out, nil
}

// BroadcastVolume charges the rounds needed for every node to learn the same
// `words` words (e.g. the whole spanner): one balancing Lenzen instance plus
// ⌈words/(n−1)⌉ full-rate rounds in which each node receives n−1 distinct
// words — the O(words/n) bound Lenzen routing gives for broadcast workloads.
// It returns the rounds charged.
func (c *Clique) BroadcastVolume(words int) int {
	if words <= 0 {
		return 0
	}
	per := c.n - 1
	if per < 1 {
		per = 1
	}
	r := 2 + (words+per-1)/per
	c.rounds += r
	c.wordsSent += int64(words) * int64(c.n)
	return r
}
