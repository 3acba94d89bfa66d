// Package whiteboard is the public API of the shared-whiteboard-models
// library, a full reproduction of Becker, Kosowski, Matamala, Nisse,
// Rapaport, Suchan and Todinca, "Allowing each node to communicate only
// once in a distributed system: shared whiteboard models" (SPAA 2012;
// Distributed Computing 28(3), 2015).
//
// The model: a distributed system is a graph whose nodes each know their
// own identifier (1..n), their neighbors' identifiers, and n. Nodes
// communicate by writing exactly one small message each on a shared
// whiteboard; an adversary picks the write order; the answer must be
// computable from the final board. Four models arise from two axes —
// whether all nodes activate immediately (SIM) and whether messages are
// frozen at activation (ASYNC) — and form the strict hierarchy
// PSIMASYNC ⊊ PSIMSYNC ⊊ PASYNC ⊆ PSYNC (Theorem 4).
//
// This package re-exports the model (core), the execution engines
// (sequential, exhaustive-adversary, and memoized exhaustive-adversary),
// the adversaries, the graph substrate, and constructors for every
// protocol in the paper:
//
//   - BuildForest — BUILD for forests, SIMASYNC[log n] (Section 3.1)
//   - BuildKDegenerate — BUILD for degeneracy-≤k graphs,
//     SIMASYNC[O(k² log n)] (Theorem 2)
//   - RootedMIS — maximal independent set containing x, SIMSYNC[log n]
//     (Theorem 5)
//   - TwoCliquesProtocol — two-cliques detection, SIMSYNC[log n] (§5.1)
//   - EOBBFS — BFS forests of even-odd-bipartite graphs, ASYNC[log n]
//     (Theorem 7)
//   - BipartiteBFS — BFS forests of bipartite graphs, ASYNC[log n]
//     (Corollary 4)
//   - BFS — BFS forests of arbitrary graphs, SYNC[log n] (Theorem 10)
//   - SubgraphPrefix — SUBGRAPH_f, SIMASYNC[f + log n] (Theorem 9)
//   - RandomizedTwoCliques — randomized SIMASYNC 2-CLIQUES (Open Problem 4)
//
// The lower-bound side of the paper is executable too: see
// internal/reductions (Figure 1/2 gadgets, the Theorem 3/6/8 whiteboard
// simulations) and internal/bounds (Lemma 3 counting, pigeonhole collision
// finder), surfaced through the cmd/ tools.
package whiteboard

import (
	"math/big"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/protocols/bfs"
	"repro/internal/protocols/buildforest"
	"repro/internal/protocols/buildkdeg"
	"repro/internal/protocols/connectivity"
	"repro/internal/protocols/mis"
	"repro/internal/protocols/randcliques"
	"repro/internal/protocols/subgraphf"
	"repro/internal/protocols/twocliques"
)

// Model is one of the four synchronization models of Table 1.
type Model = core.Model

// The four models, in increasing synchronization power along the lattice.
const (
	SimAsync = core.SimAsync
	SimSync  = core.SimSync
	Async    = core.Async
	Sync     = core.Sync
)

// Core model types.
type (
	// Protocol is the algorithm run at every node plus the output decoder.
	Protocol = core.Protocol
	// Board is the shared whiteboard.
	Board = core.Board
	// Message is one whiteboard entry.
	Message = core.Message
	// NodeView is a node's a-priori knowledge.
	NodeView = core.NodeView
	// Result describes a finished run.
	Result = core.Result
	// Status classifies run outcomes.
	Status = core.Status
	// WriteEvent records one whiteboard append.
	WriteEvent = core.WriteEvent
)

// Run outcome statuses.
const (
	Success  = core.Success
	Deadlock = core.Deadlock
	Failed   = core.Failed
)

// Graph is a simple undirected graph on nodes 1..n.
type Graph = graph.Graph

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// GraphFromEdges builds a graph from an edge list.
func GraphFromEdges(n int, edges [][2]int) *Graph { return graph.FromEdges(n, edges) }

// Adversary chooses the next writer each round.
type Adversary = adversary.Adversary

// Adversary constructors.
var (
	// MinIDAdversary always writes the smallest eligible identifier.
	MinIDAdversary Adversary = adversary.MinID{}
	// MaxIDAdversary always writes the largest eligible identifier.
	MaxIDAdversary Adversary = adversary.MaxID{}
	// RotorAdversary cycles deterministically through candidates.
	RotorAdversary Adversary = adversary.Rotor{}
)

// RandomAdversary returns a seeded uniformly random adversary.
func RandomAdversary(seed int64) Adversary { return adversary.NewRandom(seed) }

// StubbornAdversary delays victim as long as any other candidate exists.
func StubbornAdversary(victim int, inner Adversary) Adversary {
	return adversary.Stubborn{Victim: victim, Inner: inner}
}

// ScriptedAdversary replays a fixed total order over identifiers.
func ScriptedAdversary(order []int) Adversary { return adversary.NewScripted(order) }

// Options tunes a run; the zero value is ready to use.
type Options = engine.Options

// ForceModel returns Options that run a protocol under a different model's
// semantics than it was designed for (how the paper's separations are
// demonstrated operationally).
func ForceModel(m Model) Options { return Options{Model: engine.ModelPtr(m)} }

// Run executes p on g under adv with the deterministic sequential engine.
func Run(p Protocol, g *Graph, adv Adversary, opts Options) *Result {
	return engine.Run(p, g, adv, opts)
}

// RunAll enumerates every adversarial schedule (small inputs only) and
// calls check on each terminal result; it returns the number of schedules
// explored. The worst-case adversary, made literal.
func RunAll(p Protocol, g *Graph, opts Options, maxSteps int,
	check func(res *Result, order []int) error) (int, error) {
	stats, err := engine.RunAll(p, g, opts, maxSteps, check)
	return stats.Schedules, err
}

// RunAllMemo enumerates every adversarial schedule like RunAll but
// collapses write orders that reach identical (board, node-state,
// pending-message) configurations, visiting each configuration class once
// with its exact schedule multiplicity. Tallies summed over multiplicities
// are bit-for-bit what RunAll produces, at a fraction of the simulated
// writes on protocols whose message contents coincide across writers.
func RunAllMemo(p Protocol, g *Graph, opts Options, maxSteps int,
	visit func(res *Result, mult *big.Int) error) (engine.MemoStats, error) {
	return engine.RunAllMemo(p, g, opts, maxSteps, visit)
}

// BuildForest returns the SIMASYNC[log n] BUILD protocol for forests.
// Its output type is ForestReconstruction.
func BuildForest() Protocol { return buildforest.Protocol{} }

// ForestReconstruction is BuildForest's output.
type ForestReconstruction = buildforest.Decoded

// BuildKDegenerate returns the SIMASYNC[O(k² log n)] BUILD protocol for
// graphs of degeneracy at most k. Its output type is GraphReconstruction.
func BuildKDegenerate(k int) Protocol { return buildkdeg.Protocol{K: k} }

// GraphReconstruction is BuildKDegenerate's output.
type GraphReconstruction = buildkdeg.Decoded

// BuildSplitDegenerate returns the two-sided BUILD protocol (the extension
// the paper sketches after Theorem 2): same messages and budget as
// BuildKDegenerate(k), but the decoder also eliminates nodes of degree
// ≥ |R|−k−1 among the remaining nodes by decoding the complement of their
// neighborhood — reconstructing complete graphs, complements of
// k-degenerate graphs, split graphs and joins.
func BuildSplitDegenerate(k int) Protocol { return buildkdeg.Protocol{K: k, Split: true} }

// RootedMIS returns the SIMSYNC[log n] protocol computing a maximal
// independent set containing root. Its output is a sorted []int.
func RootedMIS(root int) Protocol { return mis.Protocol{Root: root} }

// TwoCliquesProtocol returns the SIMSYNC[log n] 2-CLIQUES protocol for
// (n−1)-regular 2n-node inputs. Its output type is TwoCliquesAnswer.
func TwoCliquesProtocol() Protocol { return twocliques.Protocol{} }

// TwoCliquesAnswer is TwoCliquesProtocol's output.
type TwoCliquesAnswer = twocliques.Output

// BFS returns the SYNC[log n] BFS-forest protocol for arbitrary graphs.
// Its output type is BFSForest.
func BFS() Protocol { return bfs.New(bfs.General) }

// CachedBFS is BFS with the incremental board-parse cache enabled:
// observationally identical, but each node's activation check costs O(new
// messages) instead of O(board) — use it for large runs (the ablation in
// internal/protocols/bfs shows 30–110× at n=64..256).
func CachedBFS() Protocol { return bfs.NewCached(bfs.General) }

// EOBBFS returns the ASYNC[log n] BFS-forest protocol for even-odd-
// bipartite graphs, rejecting invalid inputs.
func EOBBFS() Protocol { return bfs.New(bfs.EOB) }

// BipartiteBFS returns the ASYNC[log n] BFS-forest protocol for bipartite
// graphs (no validity detection; may deadlock on odd cycles).
func BipartiteBFS() Protocol { return bfs.New(bfs.Bipartite) }

// BFSForest is the output of the BFS protocols.
type BFSForest = bfs.Forest

// Connectivity returns the SYNC[log n] protocol answering CONNECTIVITY and
// SPANNING-TREE (the achievable side of Open Problem 2) on top of the
// Theorem 10 BFS machinery. Its output type is ConnectivityAnswer.
func Connectivity() Protocol { return connectivity.New(true) }

// ConnectivityAnswer is Connectivity's output.
type ConnectivityAnswer = connectivity.Answer

// SubgraphPrefix returns the SIMASYNC[f(n)+log n] SUBGRAPH_f protocol; its
// output is the *Graph containing exactly the edges among {v1..v_f(n)}.
func SubgraphPrefix(f func(n int) int, label string) Protocol {
	return subgraphf.Protocol{F: f, Label: label}
}

// RandomizedTwoCliques returns the randomized SIMASYNC 2-CLIQUES protocol
// with B-bit fingerprints and the given shared-randomness seed.
func RandomizedTwoCliques(seed uint64, bits int) Protocol {
	return randcliques.Protocol{Seed: seed, Bits: bits}
}
