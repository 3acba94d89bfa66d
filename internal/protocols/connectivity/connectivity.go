// Package connectivity answers the paper's Open Problem 2 on its
// achievable side: SPANNING-TREE and CONNECTIVITY are solvable in
// SYNC[log n], by reading them off the Theorem 10 BFS forest — the board
// contains one ROOT-parented message per component, and the parent edges
// of a connected component form a spanning tree. (Whether any ASYNC[o(n)]
// protocol exists is the open part; see the deadlock evidence in the
// BFS/ASYNC cell of cmd/wbtable2 and in internal/protocols/bfs's
// TestOpenProblem3SyncBFSUnderAsyncFreezingDeadlocks.)
package connectivity

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/protocols/bfs"
)

// Answer is the protocol output.
type Answer struct {
	Connected  bool
	Components int
	// SpanningForest lists the BFS parent edges (child, parent), one per
	// non-root node; for a connected input it is a spanning tree.
	SpanningForest [][2]int
	// Roots are the per-component minimum identifiers.
	Roots []int
}

// Protocol decides connectivity and emits a spanning forest in
// SYNC[log n]. It delegates activation and message composition to the
// Theorem 10 BFS protocol unchanged — only the output decoding differs.
type Protocol struct {
	inner bfs.Protocol
}

// New returns the connectivity protocol.
func New() Protocol { return Protocol{inner: bfs.New(bfs.General)} }

// Name implements core.Protocol.
func (p Protocol) Name() string { return "connectivity" }

// Model implements core.Protocol.
func (p Protocol) Model() core.Model { return core.Sync }

// MaxMessageBits implements core.Protocol.
func (p Protocol) MaxMessageBits(n int) int { return p.inner.MaxMessageBits(n) }

// Activate implements core.Protocol.
func (p Protocol) Activate(v core.NodeView, b *core.Board) bool { return p.inner.Activate(v, b) }

// Compose implements core.Protocol.
func (p Protocol) Compose(v core.NodeView, b *core.Board) core.Message { return p.inner.Compose(v, b) }

// Output implements core.Protocol.
func (p Protocol) Output(n int, b *core.Board) (any, error) {
	out, err := p.inner.Output(n, b)
	if err != nil {
		return nil, err
	}
	f, ok := out.(bfs.Forest)
	if !ok {
		return nil, fmt.Errorf("connectivity: unexpected inner output %T", out)
	}
	ans := Answer{Roots: f.Roots, Components: len(f.Roots), Connected: len(f.Roots) <= 1}
	for v := 1; v <= n; v++ {
		if f.Parent[v] != 0 {
			ans.SpanningForest = append(ans.SpanningForest, [2]int{v, f.Parent[v]})
		}
	}
	return ans, nil
}

var _ core.Protocol = Protocol{}
