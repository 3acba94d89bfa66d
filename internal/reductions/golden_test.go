package reductions_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/reductions"
	"repro/internal/registry"
	"repro/internal/testutil"
)

// TestReductionBoardsGolden pins what the registered oracles and pair
// primes, and EOBPrime over the BFS oracle, write and output: one line per
// run on fixed valid inputs under every standard adversary (name, budget,
// status, error, output and the SHA-256 of the board), then whether each
// pair prime's Output accepts seeded garbage boards, and what it outputs
// when it does. Rewriting a reduction
// must leave every line as it is.
//
// The garbage lines leave out the bare oracles and EOBPrime: the oracle
// decoder this golden was generated with panicked on a board that lacks a
// node's row, which EOBPrime reaches through its gadget boards.
// TestOutputsSurviveGarbageBoards covers them.
func TestReductionBoardsGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	triangleFree := []*graph.Graph{
		graph.RandomBipartite(8, 0.5, rng),
		graph.RandomEOB(8, 0.4, rng),
		graph.Cycle(7),
	}
	squareFree := []*graph.Graph{graph.RandomTree(9, rng), graph.PolarityGraph(3)}
	anyGraph := []*graph.Graph{graph.RandomGNP(8, 0.4, rng), graph.Complete(6)}
	eob := []*graph.Graph{graph.RandomEOB(8, 0.45, rng), graph.RandomEOB(10, 0.45, rng)}

	eobPrime := func(registry.Params) core.Protocol {
		return reductions.EOBPrime{Inner: registry.MustProtocol("oracle-bfs", registry.Params{})}
	}
	named := func(name string) func(registry.Params) core.Protocol {
		return func(p registry.Params) core.Protocol { return registry.MustProtocol(name, p) }
	}
	cases := []struct {
		build   func(registry.Params) core.Protocol
		graphs  []*graph.Graph
		garbage bool
	}{
		{named("oracle-triangle"), triangleFree, false},
		{named("triangle-prime"), triangleFree, true},
		{named("oracle-square"), squareFree, false},
		{named("square-prime"), squareFree, true},
		{named("oracle-mis"), anyGraph, false},
		{named("mis-prime"), anyGraph, true},
		{named("oracle-bfs"), eob, false},
		{eobPrime, eob, false},
	}

	var out bytes.Buffer
	for _, c := range cases {
		for _, g := range c.graphs {
			p := c.build(registry.Params{N: g.N(), K: 2})
			for i := range adversary.Standard(1, 7) {
				adv := adversary.Standard(1, 7)[i]
				res := engine.Run(p, g, adv, engine.Options{})
				fmt.Fprintf(&out, "%s n=%d bits=%d adv=%s status=%v err=%v out=%v board=%x\n",
					p.Name(), g.N(), p.MaxMessageBits(g.N()), adv.Name(), res.Status, res.Err,
					res.Output, sha256.Sum256([]byte(res.Board.Key())))
			}
		}
	}

	garbage := rand.New(rand.NewSource(2029))
	for _, c := range cases {
		if !c.garbage {
			continue
		}
		n := c.graphs[0].N()
		p := c.build(registry.Params{N: n, K: 2})
		fmt.Fprintf(&out, "garbage %s n=%d:", p.Name(), n)
		valid := engine.Run(p, c.graphs[0], adversary.MinID{}, engine.Options{}).Board
		for trial := 0; trial < 20; trial++ {
			// A trial writes random words, flips one bit of a valid
			// board, or swaps two of its messages.
			b := core.NewBoard()
			switch trial % 3 {
			case 0:
				for msgs := garbage.Intn(n + 3); msgs > 0; msgs-- {
					bits := 1 + garbage.Intn(64)
					data := make([]byte, (bits+7)/8)
					garbage.Read(data)
					b.Append(core.Message{Data: data, Bits: bits})
				}
			case 1:
				flip := garbage.Intn(valid.Len())
				for i := 0; i < valid.Len(); i++ {
					m := valid.At(i)
					if i == flip {
						bit := garbage.Intn(m.Bits)
						data := append([]byte(nil), m.Data...)
						data[bit/8] ^= 1 << (7 - bit%8)
						m = core.Message{Data: data, Bits: m.Bits}
					}
					b.Append(m)
				}
			default:
				x, y := garbage.Intn(valid.Len()), garbage.Intn(valid.Len())
				for i := 0; i < valid.Len(); i++ {
					switch i {
					case x:
						b.Append(valid.At(y))
					case y:
						b.Append(valid.At(x))
					default:
						b.Append(valid.At(i))
					}
				}
			}
			if v, err := p.Output(n, b); err != nil {
				out.WriteString(" err")
			} else {
				fmt.Fprintf(&out, " ok=%v", v)
			}
		}
		out.WriteByte('\n')
	}
	testutil.CheckGolden(t, "reduction_boards.txt", out.Bytes())
}
