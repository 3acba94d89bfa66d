// wbrun executes one whiteboard protocol on one graph under one adversary
// and reports the run: status, rounds, write order, message sizes, and the
// decoded output. All components are resolved by name through
// internal/registry — the same catalog cmd/wbcampaign sweeps over.
//
// Examples:
//
//	wbrun -protocol bfs -graph gnp -n 12 -p 0.3 -adversary rotor
//	wbrun -protocol build-kdeg -k 3 -graph kdeg -n 20 -trace
//	wbrun -protocol mis -graph path -n 5 -adversary scripted:5,4,3,2,1
//	wbrun -protocol bfs -graph cycle -n 5 -force-model ASYNC   # deadlock demo
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	whiteboard "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "wbrun:", err)
		os.Exit(1)
	}
}

// run parses args, runs what they ask for and writes the report to
// stdout. A bad flag exits the process, as flag.Parse does.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("wbrun", flag.ExitOnError)
	var (
		protoName = fs.String("protocol", "build-forest", "protocol: "+registry.FlagHelp(registry.Protocols()))
		graphName = fs.String("graph", "tree", "graph: "+registry.FlagHelp(registry.Graphs()))
		n         = fs.Int("n", 10, "number of nodes (for two-cliques: total = 2·(n/2))")
		k         = fs.Int("k", 2, "degeneracy bound / MIS root / subgraph prefix length")
		p         = fs.Float64("p", 0.3, "edge probability for random graphs")
		seed      = fs.Int64("seed", 1, "random seed for graphs and the random adversary")
		advName   = fs.String("adversary", "min", "adversary: "+registry.FlagHelp(registry.Adversaries())+" (e.g. stubborn:3, scripted:3,1,2, script:pick(round))")
		force     = fs.String("force-model", "", "override model: SIMASYNC|SIMSYNC|ASYNC|SYNC")
		trace     = fs.Bool("trace", false, "print every write event")
		spectrum  = fs.Bool("spectrum", false, "enumerate ALL adversarial schedules (small n!) and tally the outcomes instead of a single run")
	)
	fs.Parse(args)

	params := registry.Params{N: *n, K: *k, P: *p, Seed: *seed}
	rng := rand.New(rand.NewSource(*seed))
	g, err := registry.NewGraph(*graphName, params, rng)
	if err != nil {
		return err
	}
	params.N = g.N() // some families adjust n (grid, polarity, two-cliques)
	proto, err := registry.NewProtocol(*protoName, params)
	if err != nil {
		return err
	}
	adv, err := registry.NewAdversary(*advName, params)
	if err != nil {
		return err
	}
	opts := engine.Options{}
	if *force != "" {
		m, err := registry.ParseModel(*force)
		if err != nil {
			return err
		}
		opts.Model = m
	}

	fmt.Fprintf(stdout, "graph:     %v\n", g)
	fmt.Fprintf(stdout, "protocol:  %s (model %s, budget %d bits/message at n=%d)\n",
		proto.Name(), proto.Model(), proto.MaxMessageBits(g.N()), g.N())

	if *spectrum {
		s, err := engine.OutputSpectrum(proto, g, opts, 1<<24)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "schedules: %d distinct adversarial executions\n", s.Schedules)
		fmt.Fprintf(stdout, "deadlocks: %d, failures: %d\n", s.Deadlocks, s.Failures)
		fmt.Fprintf(stdout, "distinct outputs (%d):\n", len(s.Outputs))
		for _, o := range s.DistinctOutputs() {
			fmt.Fprintf(stdout, "  %5d× %s\n", s.Outputs[o], o)
		}
		return nil
	}

	fmt.Fprintf(stdout, "adversary: %s\n", adv.Name())

	res := engine.Run(proto, g, adv, opts)

	fmt.Fprintf(stdout, "status:    %v", res.Status)
	if res.Err != nil {
		fmt.Fprintf(stdout, " (%v)", res.Err)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "rounds:    %d, writes: %d, board: %d bits total, max message: %d bits\n",
		res.Rounds, len(res.Writes), res.Board.TotalBits(), res.MaxBits)
	if *trace {
		for i, w := range res.Writes {
			fmt.Fprintf(stdout, "  write %2d: round %3d node %3d (%d bits): %s\n",
				i+1, w.Round, w.Writer, w.Bits, res.Board.At(i))
		}
	} else {
		fmt.Fprintf(stdout, "order:     %v\n", res.WriterOrder())
	}
	if res.Status == core.Success {
		printOutput(stdout, res.Output)
	}
	return nil
}

func printOutput(w io.Writer, out any) {
	switch o := out.(type) {
	case whiteboard.ForestReconstruction:
		if !o.InClass {
			fmt.Fprintln(w, "output:    NOT a forest (cycle detected)")
		} else {
			fmt.Fprintf(w, "output:    reconstructed %v\n", o.Forest)
		}
	case whiteboard.GraphReconstruction:
		if !o.InClass {
			fmt.Fprintln(w, "output:    degeneracy exceeds k (rejected)")
		} else {
			fmt.Fprintf(w, "output:    reconstructed %v\n", o.Graph)
		}
	case []int:
		fmt.Fprintf(w, "output:    set %v\n", o)
	case whiteboard.TwoCliquesAnswer:
		if o.TwoCliques {
			fmt.Fprintf(w, "output:    two cliques: %v / %v\n", o.Clique0, o.Clique1)
		} else {
			fmt.Fprintln(w, "output:    not two cliques")
		}
	case whiteboard.BFSForest:
		if !o.Valid {
			fmt.Fprintln(w, "output:    input rejected (not even-odd-bipartite)")
			return
		}
		fmt.Fprintf(w, "output:    BFS forest, roots %v\n", o.Roots)
		for v := 1; v < len(o.Parent); v++ {
			fmt.Fprintf(w, "  node %3d: layer %2d parent %d\n", v, o.Layer[v], o.Parent[v])
		}
	case whiteboard.ConnectivityAnswer:
		fmt.Fprintf(w, "output:    connected=%v, %d component(s), roots %v, %d spanning edges\n",
			o.Connected, o.Components, o.Roots, len(o.SpanningForest))
	case *graph.Graph:
		fmt.Fprintf(w, "output:    %v\n", o)
	default:
		fmt.Fprintf(w, "output:    %v\n", out)
	}
}
