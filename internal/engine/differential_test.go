package engine

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/registry"
)

// treeWalkSpectrum is OutputSpectrum over the plain schedule-tree walk
// (RunAll): the reference every memoized tally is checked against.
func treeWalkSpectrum(p core.Protocol, g *graph.Graph, opts Options, maxSteps int) (*Spectrum, error) {
	s := &Spectrum{Outputs: map[string]int{}}
	stats, err := RunAll(p, g, opts, maxSteps, func(res *core.Result, _ []int) error {
		s.tally(res, 1)
		return nil
	})
	s.Schedules, s.Steps = stats.Schedules, stats.Steps
	return s, err
}

// registeredSpec returns a runnable spec for the registered protocol name:
// the name itself, or for the two wrappers that require an argument, the
// wrapper over mis.
func registeredSpec(name string) string {
	switch name {
	case "lemma4":
		return "lemma4:mis"
	case "gate":
		// A predicate that delays but never permanently silences a node.
		return "gate:mis:id % 2 == 1 or boardlen * 2 >= n"
	}
	return name
}

// registeredInstance builds a registered protocol and graph on n nodes.
func registeredInstance(t testing.TB, pname, gname string, n int) (core.Protocol, *graph.Graph) {
	t.Helper()
	params := registry.Params{N: n, K: 2, Seed: 1}
	p, err := registry.NewProtocol(pname, params)
	if err != nil {
		t.Fatalf("%s: %v", pname, err)
	}
	g, err := registry.NewGraph(gname, params, nil)
	if err != nil {
		t.Fatalf("%s: %v", gname, err)
	}
	return p, g
}

// checkMemoMatchesNaive runs the naive and memoized exhaustive walks of p
// on g under model and reports every way they differ: outputs and their
// schedule counts, deadlock and failure tallies, and a naive step count
// that the memoized walk does not account for exactly as Steps +
// StepsSaved. A walk that fails must fail alike under both. It returns the
// memoized walk's Spectrum and error.
func checkMemoMatchesNaive(t *testing.T, coord string, p core.Protocol, g *graph.Graph, model *core.Model) (*Spectrum, error) {
	t.Helper()
	naive, errN := treeWalkSpectrum(p, g, Options{Model: model}, 1<<20)
	memo, errM := OutputSpectrum(p, g, Options{Model: model}, 1<<20)
	if (errN != nil) != (errM != nil) {
		t.Errorf("%s: naive err %v, memoized err %v", coord, errN, errM)
	}
	if errN != nil || errM != nil {
		return memo, errM
	}
	if naive.Schedules != memo.Schedules {
		t.Errorf("%s: schedules %d vs %d", coord, naive.Schedules, memo.Schedules)
	}
	if naive.Deadlocks != memo.Deadlocks || naive.Failures != memo.Failures {
		t.Errorf("%s: deadlocks/failures %d/%d vs %d/%d", coord,
			naive.Deadlocks, naive.Failures, memo.Deadlocks, memo.Failures)
	}
	if !reflect.DeepEqual(naive.Outputs, memo.Outputs) {
		t.Errorf("%s: outputs %v vs %v", coord, naive.Outputs, memo.Outputs)
	}
	if naive.Steps != memo.Steps+memo.StepsSaved {
		t.Errorf("%s: naive %d steps, memoized %d + %d saved", coord,
			naive.Steps, memo.Steps, memo.StepsSaved)
	}
	return memo, nil
}

// TestMemoizedMatchesNaiveAllRegistered is the differential property test
// behind the memoized default: for every registered protocol on every
// path/cycle/complete graph with n ≤ 5, under the protocol's native model
// and forced under each of the four models, the memoized and naive
// exhaustive walks must agree byte-for-byte (checkMemoMatchesNaive). Model
// violations (e.g. forcing a SYNC protocol under SIMASYNC activation) must
// abort both walks alike.
func TestMemoizedMatchesNaiveAllRegistered(t *testing.T) {
	graphs := []string{"path", "cycle", "complete"}
	models := []string{"native", "SIMASYNC", "SIMSYNC", "ASYNC", "SYNC"}
	for _, pname := range registry.Protocols() {
		spec := registeredSpec(pname)
		for _, gname := range graphs {
			for n := 2; n <= 5; n++ {
				if gname == "cycle" && n < 3 {
					continue
				}
				proto, g := registeredInstance(t, spec, gname, n)
				for _, mname := range models {
					model, err := registry.ParseModel(mname)
					if err != nil {
						t.Fatal(err)
					}
					checkMemoMatchesNaive(t, fmt.Sprintf("%s/%s n=%d %s", spec, gname, n, mname), proto, g, model)
				}
			}
		}
	}
}

// TestMemoMatchesNaiveOnCrowdedBoards runs the memo == naive oracle where
// a parent board's successors crowd onto one child board: mis on K7 and K8
// puts 20 and 35 classes on one child board, where the n ≤ 5 instances
// above put at most 6, so the memoized walk's lookup within a group meets
// many keys that share their message. Forced ASYNC also keys the pending
// messages. The naive walks take 13,699 and 109,600 writes. Tallies stay
// exact even when a lookup misses a known class, so the DAG's class and
// step counts are pinned too.
func TestMemoMatchesNaiveOnCrowdedBoards(t *testing.T) {
	for _, c := range []struct{ n, classes, steps int }{{7, 320, 928}, {8, 704, 2368}} {
		p, g := registeredInstance(t, "mis", "complete", c.n)
		for _, mname := range []string{"native", "ASYNC"} {
			model, err := registry.ParseModel(mname)
			if err != nil {
				t.Fatal(err)
			}
			coord := fmt.Sprintf("mis/complete n=%d %s", c.n, mname)
			memo, err := checkMemoMatchesNaive(t, coord, p, g, model)
			if err != nil {
				t.Fatalf("%s: %v", coord, err)
			}
			if memo.Classes != c.classes || memo.Steps != c.steps {
				t.Errorf("%s: memoized %d classes and %d steps, want %d and %d", coord, memo.Classes, memo.Steps, c.classes, c.steps)
			}
		}
	}
}

// outcomeKey renders what a terminal result shows the campaign tallies:
// status, output or error, rounds and the final board.
func outcomeKey(res *core.Result) string {
	return fmt.Sprintf("%v|%v|%v|%d|%s", res.Status, res.Output, res.Err, res.Rounds, res.Board.Key())
}

// TestMemoMatchesTreeWalkOnExhaustiveSpec pins the two exhaustive walks
// to each other on the cells of a typical exhaustive campaign (bfs,
// connectivity and mis on paths and cycles, n = 3..5): summed over
// multiplicities, RunAllMemo's terminal outcomes — status, output, rounds
// and final board, everything a campaign cell tallies — equal RunAll's
// schedule for schedule, and the memoized walk accounts for the tree
// walk's steps exactly. mis collapses, so the equality is not vacuous.
func TestMemoMatchesTreeWalkOnExhaustiveSpec(t *testing.T) {
	collapsed := false
	for _, pname := range []string{"bfs", "connectivity", "mis"} {
		for _, gname := range []string{"path", "cycle"} {
			for n := 3; n <= 5; n++ {
				coord := fmt.Sprintf("%s/%s n=%d", pname, gname, n)
				params := registry.Params{N: n}
				p, err := registry.NewProtocol(pname, params)
				if err != nil {
					t.Fatal(err)
				}
				g, err := registry.NewGraph(gname, params, nil)
				if err != nil {
					t.Fatal(err)
				}
				tree, memo := map[string]int{}, map[string]int{}
				all, err := RunAll(p, g, Options{}, 1<<20, func(res *core.Result, _ []int) error {
					tree[outcomeKey(res)]++
					return nil
				})
				if err != nil {
					t.Fatalf("%s: RunAll: %v", coord, err)
				}
				stats, err := RunAllMemo(p, g, Options{}, 1<<20, func(res *core.Result, mult *big.Int) error {
					memo[outcomeKey(res)] += int(mult.Int64())
					return nil
				})
				if err != nil {
					t.Fatalf("%s: RunAllMemo: %v", coord, err)
				}
				if !reflect.DeepEqual(tree, memo) {
					t.Errorf("%s: terminal outcomes differ:\ntree %v\nmemo %v", coord, tree, memo)
				}
				if stats.Schedules.Int64() != int64(all.Schedules) {
					t.Errorf("%s: schedules %s vs %d", coord, stats.Schedules, all.Schedules)
				}
				if stats.Steps+stats.StepsSaved() != all.Steps {
					t.Errorf("%s: memoized %d steps + %d saved, tree walk %d", coord,
						stats.Steps, stats.StepsSaved(), all.Steps)
				}
				if pname == "mis" && stats.Steps < all.Steps {
					collapsed = true
				}
			}
		}
	}
	if !collapsed {
		t.Error("no mis cell collapsed — the equivalence test lost its teeth")
	}
}
