// wbtable2 regenerates Table 2 of the paper — the classification of
// problems across the four whiteboard models — from live runs, and reads
// Theorem 4's lattice of the models off the certified grid.
//
// "yes" cells are certified by running the registered protocol over a graph
// battery under four fixed and one or two seeded random adversaries (BUILD
// k-degenerate also over every schedule of C5). Each output must pass the
// registry's check against its centralized reference, and the engine holds
// each message to the protocol's bit budget. "no" cells are certified by the
// paper's reduction + counting scheme: the executable gadget transformation
// (internal/reductions) plus the Lemma 3 pigeonhole (internal/bounds).
//
// Protocols and graphs are resolved by name through internal/registry, the
// same catalog cmd/wbrun and cmd/wbcampaign use.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/reductions"
	"repro/internal/registry"
)

type cell struct {
	answer   string // "yes", "no", "?" or "FAIL"
	evidence string
}

// row is one problem's cells, in the order of core.AllModels.
type row struct {
	problem string
	cells   [4]cell
}

func main() {
	verbose := flag.Bool("v", false, "print per-cell evidence details")
	flag.Parse()
	if failed := run(os.Stdout, *verbose); failed > 0 {
		fmt.Fprintf(os.Stderr, "wbtable2: %d cells failed certification\n", failed)
		os.Exit(1)
	}
}

// run certifies every cell, writes the table to w (with each cell's
// evidence when verbose) and returns the number of cells that read FAIL.
func run(w io.Writer, verbose bool) (failed int) {
	fmt.Fprintln(w, "Table 2 — classification of problems in the four whiteboard models")
	fmt.Fprintln(w, "(regenerated from live runs; message size O(log n) for yes, o(n) impossible for no)")
	fmt.Fprintln(w)

	lemma4 := cell{"yes", "runs in any stronger model (Lemma 4)"}
	viaAsync := cell{"yes", "via ASYNC (Lemma 4)"}
	viaLemma4 := cell{"yes", "via Lemma 4"}
	open := cell{"?", "open problem in the paper"}
	noEOB := noEOBBFS()
	rows := []row{
		{"BUILD k-degenerate", [4]cell{yesBuildKDeg(), lemma4, lemma4, lemma4}},
		{"rooted MIS", [4]cell{
			noMIS(), yesMIS(), {"yes", "SIMSYNC protocol under fixed activation order (Lemma 4)"}, viaAsync}},
		// No registered protocol runs TRIANGLE under SIMSYNC: that cell is
		// the paper's, and its evidence says so.
		{"TRIANGLE", [4]cell{noTriangle(),
			{"yes", "Table 2 (paper); separation side is executable (see SIMASYNC cell)"},
			{"yes", "via SIMSYNC translation (Lemma 4)"}, viaAsync}},
		{"EOB-BFS", [4]cell{noEOB, noEOB, yesEOBBFS(), viaAsync}},
		{"BFS", [4]cell{open, open, openBFSAsync(), yesBFS()}},
		{"2-CLIQUES", [4]cell{
			{"?", "Open Problem 1; randomized SIMASYNC[O(log n)] protocol exists (see rand-cliques)"},
			yesTwoCliques(), viaLemma4, viaLemma4}},
	}

	fmt.Fprintf(w, "%-22s %-10s %-10s %-10s %-10s\n", "problem", "SIMASYNC", "SIMSYNC", "ASYNC", "SYNC")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-10s %-10s %-10s %-10s\n", r.problem,
			r.cells[0].answer, r.cells[1].answer, r.cells[2].answer, r.cells[3].answer)
		for i, c := range r.cells {
			if verbose {
				fmt.Fprintf(w, "    %-9s %s\n", core.AllModels[i].String()+":", c.evidence)
			}
			if c.answer == "FAIL" {
				failed++
			}
		}
	}
	fmt.Fprintln(w)
	lattice(w, rows)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "evidence summary (run with -v for per-cell details):")
	fmt.Fprintln(w, "  yes cells: 4 fixed + 1-2 seeded random adversaries on graphs up to n=96 (every")
	fmt.Fprintln(w, "             schedule only for BUILD k-degenerate on C5); outputs pass the registry's")
	fmt.Fprintln(w, "             checks against centralized references, messages within the bit budgets")
	fmt.Fprintln(w, "  no  cells: executable Figure 1/2 + Theorem 6 gadget reductions to BUILD, plus the")
	fmt.Fprintln(w, "             Lemma 3 pigeonhole: log2|family| > n·f(n) for f = o(n)")
	return failed
}

// lattice writes Theorem 4's chain of model classes as the certified grid
// shows it. Each model's class contains the previous one's (Lemma 4); a row
// reading no in one model and yes in the next separates the two, and a row
// reading ? then yes leaves the separation open.
func lattice(w io.Writer, rows []row) {
	fmt.Fprintln(w, "Theorem 4 — the lattice, read off the grid (no→yes separates; ?→yes is open):")
	for i := range len(core.AllModels) - 1 {
		rel, witnesses := "⊆", []string{}
		for _, r := range rows {
			if r.cells[i+1].answer != "yes" {
				continue
			}
			switch r.cells[i].answer {
			case "no":
				rel, witnesses = "⊊", append(witnesses, r.problem)
			case "?":
				witnesses = append(witnesses, r.problem+" (open)")
			}
		}
		fmt.Fprintf(w, "  %-9s %s %-9s %s\n", "P"+core.AllModels[i].String(), rel,
			"P"+core.AllModels[i+1].String(), strings.Join(witnesses, ", "))
	}
}

func openBFSAsync() cell {
	// Open Problem 3: the paper conjectures BFS ∉ PASYNC. Produce the
	// deadlock witness for the Theorem 10 protocol under ASYNC freezing on
	// the registry's witness family (C5 plus an isolated node).
	g := registry.MustGraph("cycle-iso", registry.Params{N: 6}, nil)
	res := engine.Run(registry.MustProtocol("bfs", registry.Params{}), g,
		registry.MustAdversary("min", registry.Params{}),
		engine.Options{Model: engine.ModelPtr(core.Async)})
	return cell{"?", fmt.Sprintf(
		"open (conjectured no); Thm-10 protocol under ASYNC freezing on C5+isolated: %v after %d writes",
		res.Status, len(res.Writes))}
}

// A job is one registered protocol on one graph; each of its outputs must
// pass the registry's check. certify runs it under every adversary of its
// cell's battery, or over every schedule when all is set.
type job struct {
	protocol string
	params   registry.Params
	g        *graph.Graph
	all      bool
}

// certify runs a yes cell's jobs, each battery job under a fresh
// adversary.Standard(random, seed), and returns the number of battery runs
// and the largest message they wrote, or the first run that failed or
// whose output failed its check.
func certify(random int, seed int64, jobs []job) (runs, maxBits int, err error) {
	for _, j := range jobs {
		j.params.N = j.g.N()
		p := registry.MustProtocol(j.protocol, j.params)
		check := func(res *core.Result) error {
			if res.Status != core.Success {
				return fmt.Errorf("%s on %v: %v (%v)", p.Name(), j.g, res.Status, res.Err)
			}
			return registry.CheckOutput(j.protocol, j.params, j.g, res.Output)
		}
		if j.all {
			if _, err := engine.RunAll(p, j.g, engine.Options{}, 1<<20,
				func(res *core.Result, _ []int) error { return check(res) }); err != nil {
				return runs, maxBits, err
			}
			continue
		}
		for _, adv := range adversary.Standard(random, seed) {
			res := engine.Run(p, j.g, adv, engine.Options{})
			if err := check(res); err != nil {
				return runs, maxBits, fmt.Errorf("%s: %w", adv.Name(), err)
			}
			runs++
			maxBits = max(maxBits, res.MaxBits)
		}
	}
	return runs, maxBits, nil
}

// verdict is answer with the evidence, or FAIL with err when there is one.
func verdict(answer string, err error, evidence string) cell {
	if err != nil {
		return cell{"FAIL", err.Error()}
	}
	return cell{answer, evidence}
}

// battery builds the standard correctness battery from registry families.
func battery(rng *rand.Rand) []*graph.Graph {
	return []*graph.Graph{
		// The registry grid family is squares-only; keep the battery's
		// rectangular instance so distinct side lengths stay covered.
		graph.Grid(4, 6),
		registry.MustGraph("path", registry.Params{N: 17}, rng),
		registry.MustGraph("cycle", registry.Params{N: 16}, rng),
		registry.MustGraph("star", registry.Params{N: 20}, rng),
		registry.MustGraph("gnp", registry.Params{N: 24, P: 0.2}, rng),
		registry.MustGraph("connected-gnp", registry.Params{N: 32, P: 0.1}, rng),
		registry.MustGraph("gnp", registry.Params{N: 96, P: 0.05}, rng),
	}
}

func yesBuildKDeg() cell {
	rng := rand.New(rand.NewSource(11))
	var jobs []job
	for k := 1; k <= 3; k++ {
		for trial := 0; trial < 4; trial++ {
			g := registry.MustGraph("kdeg", registry.Params{N: 48, K: k}, rng)
			jobs = append(jobs, job{"build-kdeg", registry.Params{K: k}, g, false})
		}
	}
	jobs = append(jobs, job{"build-kdeg", registry.Params{K: 2}, graph.Cycle(5), true})
	runs, maxBits, err := certify(1, 31, jobs)
	return verdict("yes", err, fmt.Sprintf(
		"Thm 2: %d runs ok at n=48, max %d bits (O(k² log n)); all C5 schedules ok", runs, maxBits))
}

func yesMIS() cell {
	var jobs []job
	for _, g := range battery(rand.New(rand.NewSource(13))) {
		for root := 1; root <= g.N(); root += 7 {
			jobs = append(jobs, job{"mis", registry.Params{K: root}, g, false})
		}
	}
	runs, _, err := certify(2, 41, jobs)
	return verdict("yes", err, fmt.Sprintf("Thm 5: greedy SIMSYNC[log n]; %d runs validated", runs))
}

func yesEOBBFS() cell {
	rng := rand.New(rand.NewSource(17))
	var jobs []job
	for trial := 0; trial < 6; trial++ {
		g := registry.MustGraph("eob", registry.Params{N: 20 + 4*trial, P: 0.3}, rng)
		jobs = append(jobs, job{"eob-bfs", registry.Params{}, g, false})
	}
	// Inputs that are not even-odd-bipartite must be rejected.
	for _, g := range []*graph.Graph{graph.Cycle(5), graph.Complete(4)} {
		jobs = append(jobs, job{"eob-bfs", registry.Params{}, g, false})
	}
	runs, _, err := certify(2, 43, jobs)
	return verdict("yes", err, fmt.Sprintf(
		"Thm 7: layered ASYNC[log n]; %d runs validated incl. invalid-input rejection", runs))
}

func yesBFS() cell {
	var jobs []job
	for _, g := range battery(rand.New(rand.NewSource(19))) {
		jobs = append(jobs, job{"bfs", registry.Params{}, g, false})
	}
	runs, _, err := certify(2, 47, jobs)
	return verdict("yes", err, fmt.Sprintf("Thm 10: SYNC[log n] with d0 counters; %d runs validated", runs))
}

func yesTwoCliques() cell {
	var jobs []job
	for _, half := range []int{2, 3, 5, 8, 16} {
		jobs = append(jobs, job{"two-cliques", registry.Params{},
			registry.MustGraph("two-cliques", registry.Params{N: 2 * half}, nil), false})
		if half >= 3 {
			jobs = append(jobs, job{"two-cliques", registry.Params{},
				registry.MustGraph("swapped", registry.Params{N: 2 * half}, nil), false})
		}
	}
	runs, _, err := certify(2, 53, jobs)
	return verdict("yes", err, fmt.Sprintf("§5.1 greedy coloring + balance check; %d runs validated", runs))
}

// Lemma 3 is checked at n = 256 for every no cell.
const lemma3N = 256

// no certifies a no cell by the paper's reduction to BUILD: the gadget
// verifies on g, the prime (a SIMASYNC protocol over the problem's oracle)
// rebuilds g through the engine, its output passing check, and the family
// the prime would BUILD has more than 2^(n·fBits) members at n = 256, so no
// o(n)-bit protocol for the problem exists (Lemma 3).
func no(g *graph.Graph, verify func(*graph.Graph) error, prime core.Protocol, check func(*graph.Graph, any) error,
	log2Family float64, fBits int, evidence string) cell {
	err := verify(g)
	if err == nil {
		res := engine.Run(prime, g, adversary.Rotor{}, engine.Options{})
		if res.Status != core.Success {
			err = fmt.Errorf("reduction did not rebuild the graph: %v (%v)", res.Status, res.Err)
		} else if err = check(g, res.Output); err == nil && !bounds.Lemma3Violated(log2Family, lemma3N, fBits) {
			err = fmt.Errorf("counting bound not violated")
		}
	}
	return verdict("no", err, evidence)
}

// checked is the registry's output check of the protocol registered as name.
func checked(name string) func(*graph.Graph, any) error {
	return func(g *graph.Graph, out any) error { return registry.CheckOutput(name, registry.Params{}, g, out) }
}

func noTriangle() cell {
	g := registry.MustGraph("bipartite", registry.Params{N: 10, P: 0.5}, rand.New(rand.NewSource(23)))
	fBits := 2*16 + 8 // the prime's 2f(n+1) + O(log n) at an o(n) budget f = 16
	family := bounds.Log2BipartiteFixedParts(lemma3N)
	return no(g, reductions.VerifyTriangleGadget, registry.MustProtocol("triangle-prime", registry.Params{}),
		checked("triangle-prime"), family, fBits,
		fmt.Sprintf("Thm 3: Fig.1 gadget verified on %v; TRIANGLE⇒BUILD(bipartite) rebuilt exactly; 2^%d bipartite graphs vs %d board bits",
			g, int(family), bounds.BoardCapacity(lemma3N, fBits)))
}

func noMIS() cell {
	g := registry.MustGraph("gnp", registry.Params{N: 8, P: 0.4}, rand.New(rand.NewSource(29)))
	return no(g, reductions.VerifyMISGadget, registry.MustProtocol("mis-prime", registry.Params{N: g.N()}),
		checked("mis-prime"), bounds.Log2AllGraphs(lemma3N), 40,
		"Thm 6: MIS⇒BUILD(all graphs) rebuilt exactly; 2^(n(n-1)/2) graphs vs n·o(n) board bits")
}

func noEOBBFS() cell {
	h := registry.MustGraph("eob", registry.Params{N: 8, P: 0.5}, rand.New(rand.NewSource(31)))
	verify := func(h *graph.Graph) error {
		in, err := reductions.NewEOBGadgetInput(h)
		if err != nil {
			return err
		}
		return in.Verify()
	}
	// EOBPrime is not registered, so its rebuilt graph is compared here.
	rebuilt := func(h *graph.Graph, out any) error {
		if !out.(*graph.Graph).Equal(h) {
			return fmt.Errorf("reduction rebuilt %v", out)
		}
		return nil
	}
	return no(h, verify, reductions.EOBPrime{Inner: reductions.BFSOracle}, rebuilt, bounds.Log2EOBGraphs(lemma3N), 40,
		"Thm 8: Fig.2 gadget verified; EOB-BFS⇒BUILD(EOB) rebuilt exactly; 2^(n²/4) EOB graphs vs n·o(n) bits")
}
