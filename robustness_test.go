package whiteboard_test

import (
	"fmt"
	"math/rand"
	"testing"

	whiteboard "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/reductions"
)

// Output functions decode attacker-ordered binary words; on malformed
// boards they must fail cleanly (error), never panic and never fabricate a
// plausible answer from garbage that does not parse.

func allProtocols(n int) []core.Protocol {
	return []core.Protocol{
		whiteboard.BuildForest(),
		whiteboard.BuildKDegenerate(2),
		whiteboard.BuildSplitDegenerate(2),
		whiteboard.RootedMIS(1),
		whiteboard.TwoCliquesProtocol(),
		whiteboard.BFS(),
		whiteboard.EOBBFS(),
		whiteboard.BipartiteBFS(),
		whiteboard.Connectivity(),
		whiteboard.SubgraphPrefix(func(n int) int { return n / 2 }, "half"),
		whiteboard.RandomizedTwoCliques(7, 16),
		reductions.PairPrime{Gadget: reductions.Triangle, Inner: reductions.TriangleOracle},
		reductions.PairPrime{Gadget: reductions.MIS, Inner: reductions.MISOracle(n + 1)},
		reductions.PairPrime{Gadget: reductions.Square, Inner: reductions.SquareOracle},
		reductions.TriangleOracle,
		reductions.SquareOracle,
		reductions.BFSOracle,
		reductions.MISOracle(1),
		reductions.EOBPrime{Inner: reductions.BFSOracle},
	}
}

func outputNoPanic(t *testing.T, p core.Protocol, n int, b *core.Board, label string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: Output panicked on %s board: %v", p.Name(), label, r)
		}
	}()
	_, _ = p.Output(n, b)
}

// appendOutputMatches checks a protocol that has AppendOutput against its
// Output on b: AppendOutput must append the %v text of Output's value
// after what its buffer holds, or fail with Output's error text and leave
// the buffer as it was.
func appendOutputMatches(t *testing.T, p core.Protocol, n int, b *core.Board, label string) {
	t.Helper()
	a, ok := p.(core.OutputAppender)
	if !ok {
		return
	}
	out, err := p.Output(n, b)
	text, textErr := a.AppendOutput([]byte("key:"), n, b)
	want := "key:" + fmt.Sprint(out)
	if err != nil {
		want = "key:"
	}
	if string(text) != want || fmt.Sprint(textErr) != fmt.Sprint(err) {
		t.Errorf("%s: AppendOutput on %s board: %q, %v; Output gives %q, %v", p.Name(), label, text, textErr, want, err)
	}
}

func TestOutputsSurviveGarbageBoards(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	const n = 8
	for _, p := range allProtocols(n) {
		for trial := 0; trial < 50; trial++ {
			b := core.NewBoard()
			msgs := rng.Intn(n + 3)
			for i := 0; i < msgs; i++ {
				bits := 1 + rng.Intn(64)
				data := make([]byte, (bits+7)/8)
				rng.Read(data)
				b.Append(core.Message{Data: data, Bits: bits})
			}
			outputNoPanic(t, p, n, b, "garbage")
			appendOutputMatches(t, p, n, b, "garbage")
		}
	}
}

func TestOutputsSurviveEmptyAndTruncatedBoards(t *testing.T) {
	const n = 6
	g := graph.Path(n)
	for _, p := range allProtocols(n) {
		outputNoPanic(t, p, n, core.NewBoard(), "empty")
		// A valid prefix of a real run (missing messages).
		res := engine.Run(whiteboard.BuildForest(), g, whiteboard.MinIDAdversary, engine.Options{})
		if res.Status != core.Success {
			t.Fatal(res.Err)
		}
		outputNoPanic(t, p, n, res.Board.Truncate(3), "truncated")
		// Wrong n entirely.
		outputNoPanic(t, p, n+5, res.Board, "wrong-n")
	}
}

func TestOutputsRejectDuplicateWriters(t *testing.T) {
	// A board with one node's message twice and another's missing must be
	// rejected by the ID-checking decoders.
	const n = 5
	g := graph.Path(n)
	checks := []core.Protocol{
		whiteboard.BuildForest(),
		whiteboard.BuildKDegenerate(1),
		whiteboard.SubgraphPrefix(func(int) int { return 2 }, "two"),
	}
	for _, p := range checks {
		res := engine.Run(p, g, whiteboard.MinIDAdversary, engine.Options{})
		if res.Status != core.Success {
			t.Fatal(res.Err)
		}
		forged := core.NewBoard()
		for i := 0; i < res.Board.Len()-1; i++ {
			forged.Append(res.Board.At(i))
		}
		forged.Append(res.Board.At(0)) // duplicate of the first writer
		if _, err := p.Output(n, forged); err == nil {
			t.Errorf("%s: duplicated-writer board accepted", p.Name())
		}
	}
}

func TestOutputsRejectBitFlips(t *testing.T) {
	// Flipping one bit of a BUILD board must yield an error or a *wrong*
	// graph — but never a crash. Statistically most flips break a decode
	// invariant; count how many are detected.
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomTree(10, rng)
	p := whiteboard.BuildForest()
	res := engine.Run(p, g, whiteboard.MinIDAdversary, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	detected, total := 0, 0
	for msg := 0; msg < res.Board.Len(); msg++ {
		orig := res.Board.At(msg)
		for bit := 0; bit < orig.Bits; bit++ {
			total++
			data := append([]byte(nil), orig.Data...)
			data[bit/8] ^= 1 << (7 - uint(bit%8))
			forged := core.NewBoard()
			for i := 0; i < res.Board.Len(); i++ {
				if i == msg {
					forged.Append(core.Message{Data: data, Bits: orig.Bits})
				} else {
					forged.Append(res.Board.At(i))
				}
			}
			out, err := func() (out any, err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
						t.Errorf("bit flip (msg %d bit %d) caused panic", msg, bit)
					}
				}()
				return p.Output(10, forged)
			}()
			if err != nil {
				detected++
				continue
			}
			if d, ok := out.(whiteboard.ForestReconstruction); ok {
				if !d.InClass || !d.Forest.Equal(g) {
					detected++
				}
			}
		}
	}
	if detected == 0 {
		t.Error("no bit flips detected at all — decoder checks are vacuous")
	}
	t.Logf("bit flips: %d/%d detected as error/rejection/mismatch", detected, total)
}
