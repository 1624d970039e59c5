// Package cclique simulates the distributed Congested Clique model and
// implements the paper's Section 8 results there: the w.h.p. spanner
// construction of Theorem 8.1 and the sublogarithmic weighted-APSP
// approximation of Corollary 1.5.
//
// Model: n nodes, synchronous rounds; per round, every ordered pair of nodes
// may exchange one Θ(log n)-bit word. [BDH18]'s semi-MPC equivalence lets
// the general spanner algorithm run here with every Lemma 6.1 subroutine
// collapsing to O(1) rounds, because each node's incident edges fit in its
// Θ(n) memory. The package bills rounds rather than moving words: Theorem
// 8.1's steps through ChargeRounds with per-step constants, and Corollary
// 1.5's spanner collection through BroadcastVolume, which charges the
// O(words/n) bound Lenzen's routing [Len13] gives a broadcast.
package cclique

import "fmt"

// Clique is the simulated n-node congested clique with round accounting.
type Clique struct {
	n      int
	rounds int
}

// New returns a clique on n nodes.
func New(n int) (*Clique, error) {
	if n < 1 {
		return nil, fmt.Errorf("cclique: need at least one node, got %d", n)
	}
	return &Clique{n: n}, nil
}

// N returns the node count.
func (c *Clique) N() int { return c.n }

// Rounds returns the rounds charged so far.
func (c *Clique) Rounds() int { return c.rounds }

// ChargeRounds charges r raw rounds (for steps whose message pattern is the
// trivial one-word-per-pair exchange, e.g. the sampling-outcome word of
// Theorem 8.1).
func (c *Clique) ChargeRounds(r int) { c.rounds += r }

// BroadcastVolume charges the rounds needed for every node to learn the same
// `words` words (e.g. the whole spanner): one balancing Lenzen instance
// (2 rounds) plus ⌈words/(n−1)⌉ full-rate rounds in which each node receives
// n−1 distinct words — the O(words/n) bound Lenzen routing gives for
// broadcast workloads. It returns the rounds charged.
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
	return r
}
