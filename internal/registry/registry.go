// Package registry is the single named catalog of every protocol, graph
// generator, and adversary in the repository. Each entry carries its name,
// a one-line doc string, and the parameters it consumes, so every cmd/ tool
// and the campaign subsystem construct components the same way from the
// same names — the name→constructor switches that used to be copy-pasted
// across the cmd/ tools live here, once.
//
// Names may carry a colon-separated argument ("stubborn:3",
// "scripted:3,1,2"); the part after the first colon is handed to the
// builder via Params.Arg. Unknown names produce a "did you mean" error
// naming the closest registered entry.
package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols/bfs"
	"repro/internal/protocols/buildforest"
	"repro/internal/protocols/buildkdeg"
	"repro/internal/protocols/connectivity"
	"repro/internal/protocols/mis"
	"repro/internal/protocols/randcliques"
	"repro/internal/protocols/subgraphf"
	"repro/internal/protocols/twocliques"
	"repro/internal/reductions"
	"repro/internal/scenario"
	"repro/internal/suggest"
	"repro/internal/telemetry"
)

// Params carries the shared construction parameters. Every builder reads
// only the fields its entry documents in Uses. Zero values are passed
// through verbatim — p=0 really means an edgeless random graph, k=0 a
// zero-degeneracy bound, seed=0 the zero seed — except N, where a 0-node
// system is never meant and Defaults substitutes 10.
type Params struct {
	N    int     // number of nodes (graph generators)
	K    int     // degeneracy bound / MIS root / subgraph prefix length
	P    float64 // edge probability for random generators
	Seed int64   // seed for graph RNGs, the random adversary, and randomized protocols
	Arg  string  // colon-argument of the name ("stubborn:3" → "3")
	// Script is the campaign spec's inline scenario script; the bare
	// "script" adversary compiles it when its name carries no
	// colon-argument of its own.
	Script string
	// Scenario, when non-nil, counts the compiles and evaluator steps of
	// the scripts the builders compile: the run's wb_scenario_* group.
	Scenario *telemetry.ScenarioMetrics
}

// Defaults substitutes N=10 when N is unset; every other field is
// meaningful at zero and passes through untouched.
func (p Params) Defaults() Params {
	if p.N == 0 {
		p.N = 10
	}
	return p
}

// ProtocolEntry describes one registered protocol constructor.
type ProtocolEntry struct {
	Name  string
	Doc   string
	Uses  string // params the builder reads, e.g. "k, seed"
	Build func(p Params) (core.Protocol, error)
	// Check, when set, checks one output on g of the protocol built with p:
	// its promise, then its reference. CheckOutput calls it.
	Check func(p Params, g *graph.Graph, out any) error
}

// GraphEntry describes one registered graph generator.
type GraphEntry struct {
	Name  string
	Doc   string
	Uses  string
	Build func(p Params, rng *rand.Rand) (*graph.Graph, error)
}

// AdversaryEntry describes one registered adversary constructor.
type AdversaryEntry struct {
	Name  string
	Doc   string
	Uses  string
	Build func(p Params) (adversary.Adversary, error)
}

var protocols = map[string]ProtocolEntry{}
var graphs = map[string]GraphEntry{}
var adversaries = map[string]AdversaryEntry{}

func registerProtocol(e ProtocolEntry)   { protocols[e.Name] = e }
func registerGraph(e GraphEntry)         { graphs[e.Name] = e }
func registerAdversary(e AdversaryEntry) { adversaries[e.Name] = e }

func init() {
	registerProtocol(ProtocolEntry{"build-forest", "SIMASYNC[log n] BUILD for forests (§3.1)", "",
		func(Params) (core.Protocol, error) { return buildforest.Protocol{}, nil },
		checkAs(func(_ Params, g *graph.Graph, d buildforest.Decoded) error {
			return built(graph.IsForest(g), g, d.Forest, d.InClass)
		})})
	registerProtocol(ProtocolEntry{"build-kdeg", "SIMASYNC[O(k² log n)] BUILD for degeneracy ≤ k (Thm 2)", "k",
		func(p Params) (core.Protocol, error) { return buildkdeg.Protocol{K: p.K}, nil },
		checkAs(func(p Params, g *graph.Graph, d buildkdeg.Decoded) error {
			return built(graph.Degeneracy(g) <= p.K, g, d.Graph, d.InClass)
		})})
	registerProtocol(ProtocolEntry{"build-split", "two-sided BUILD: k-degenerate plus dense complements", "k",
		func(p Params) (core.Protocol, error) { return buildkdeg.Protocol{K: p.K, Split: true}, nil },
		checkAs(func(p Params, g *graph.Graph, d buildkdeg.Decoded) error {
			return built(graph.IsSplitDegenerate(g, p.K), g, d.Graph, d.InClass)
		})})
	registerProtocol(ProtocolEntry{"mis", "SIMSYNC[log n] rooted maximal independent set (Thm 5); root = k, or 1 when k is outside [1, n]", "k, n",
		func(p Params) (core.Protocol, error) { return mis.Protocol{Root: misRoot(p)}, nil },
		checkAs(func(p Params, g *graph.Graph, set []int) error {
			// Any input: a maximal independent set that holds the root.
			if root := misRoot(p); !graph.IsMaximalIndependentSet(g, set) || !slices.Contains(set, root) {
				return fmt.Errorf("%v is not a maximal independent set holding %d", set, root)
			}
			return nil
		})})
	registerProtocol(ProtocolEntry{"two-cliques", "SIMSYNC[log n] 2-CLIQUES detection (§5.1)", "",
		func(Params) (core.Protocol, error) { return twocliques.Protocol{}, nil },
		checkAs(func(_ Params, g *graph.Graph, out twocliques.Output) error {
			// The promise: even n and (n/2−1)-regular; any answer outside it.
			if n := g.N(); n%2 != 0 || !graph.IsRegular(g, n/2-1) {
				return nil
			}
			if _, yes := graph.IsTwoCliques(g); out.TwoCliques != yes {
				return fmt.Errorf("answered %v, want %v", out.TwoCliques, yes)
			}
			return nil
		})})
	registerProtocol(ProtocolEntry{"bfs", "SYNC[log n] BFS forests of arbitrary graphs (Thm 10)", "",
		func(Params) (core.Protocol, error) { return bfs.New(bfs.General), nil },
		canonicalForest(anyGraph, false)})
	registerProtocol(ProtocolEntry{"bfs-cached", "alias of bfs, kept so that stored specs naming it still validate and hash the same", "",
		func(Params) (core.Protocol, error) { return bfs.New(bfs.General), nil },
		canonicalForest(anyGraph, false)})
	registerProtocol(ProtocolEntry{"eob-bfs", "ASYNC[log n] BFS for even-odd-bipartite graphs (Thm 7)", "",
		func(Params) (core.Protocol, error) { return bfs.New(bfs.EOB), nil },
		canonicalForest(graph.IsEvenOddBipartite, true)})
	registerProtocol(ProtocolEntry{"bipartite-bfs", "ASYNC[log n] BFS for bipartite graphs (Cor 4)", "",
		func(Params) (core.Protocol, error) { return bfs.New(bfs.Bipartite), nil },
		canonicalForest(graph.IsBipartite, false)})
	registerProtocol(ProtocolEntry{"connectivity", "SYNC[log n] CONNECTIVITY + SPANNING-TREE (Open Problem 2)", "",
		func(Params) (core.Protocol, error) { return connectivity.New(), nil },
		checkAs(func(_ Params, g *graph.Graph, a connectivity.Answer) error {
			// Any input: the answer and the component count of g.
			if yes, comps := graph.IsConnected(g), len(graph.Components(g)); a.Connected != yes || a.Components != comps {
				return fmt.Errorf("connected %v with %d components, want %v with %d", a.Connected, a.Components, yes, comps)
			}
			return nil
		})})
	registerProtocol(ProtocolEntry{"subgraph", "SIMASYNC[f+log n] SUBGRAPH_f with f(n)=k (Thm 9)", "k",
		func(p Params) (core.Protocol, error) {
			k := p.K
			return subgraphf.Protocol{F: func(int) int { return k }, Label: fmt.Sprintf("first-%d", k)}, nil
		},
		checkAs(func(p Params, g, got *graph.Graph) error {
			// Any input: exactly g's edges among nodes 1..k.
			want := graph.New(g.N())
			for _, e := range g.Edges() {
				if e[1] <= p.K {
					want.AddEdge(e[0], e[1])
				}
			}
			if !got.Equal(want) {
				return fmt.Errorf("read %v, want %v", got, want)
			}
			return nil
		})})
	registerProtocol(ProtocolEntry{"rand-cliques", "randomized SIMASYNC 2-CLIQUES (Open Problem 4); rand-cliques:<bits> overrides the 32-bit fingerprint width", "seed, arg",
		func(p Params) (core.Protocol, error) {
			bits := 32
			if p.Arg != "" {
				b, err := strconv.Atoi(p.Arg)
				if err != nil || b < 1 {
					return nil, fmt.Errorf("registry: rand-cliques wants a positive bit width, got %q", p.Arg)
				}
				bits = b
			}
			return randcliques.Protocol{Seed: uint64(p.Seed), Bits: bits}, nil
		}, nil})

	// Reduction/oracle protocols (internal/reductions): the maximal-
	// information oracles from the paper's introduction and the Theorem 3/6
	// prime transformations instantiated over them, so campaigns can sweep
	// the degenerate O(n)-bit top of the message-size hierarchy next to the
	// O(log n) protocols it dominates.
	registerProtocol(ProtocolEntry{"oracle-triangle", "SIMASYNC[n+log n] full-adjacency TRIANGLE oracle (§1 observation)", "",
		func(Params) (core.Protocol, error) { return reductions.TriangleOracle, nil }, nil})
	registerProtocol(ProtocolEntry{"oracle-square", "SIMASYNC[n+log n] full-adjacency SQUARE oracle", "",
		func(Params) (core.Protocol, error) { return reductions.SquareOracle, nil }, nil})
	registerProtocol(ProtocolEntry{"oracle-bfs", "SIMASYNC[n+log n] full-adjacency BFS oracle (Theorem 8 hypothesis)", "",
		func(Params) (core.Protocol, error) { return reductions.BFSOracle, nil }, nil})
	registerProtocol(ProtocolEntry{"oracle-mis", "SIMASYNC[n+log n] full-adjacency rooted-MIS oracle; root = k, or 1 when k is outside [1, n]", "k, n",
		func(p Params) (core.Protocol, error) { return reductions.MISOracle(misRoot(p)), nil }, nil})
	registerProtocol(ProtocolEntry{"triangle-prime", "Theorem 3 BUILD-from-TRIANGLE transformation over the adjacency oracle (triangle-free inputs)", "",
		func(Params) (core.Protocol, error) {
			return reductions.PairPrime{Gadget: reductions.Triangle, Inner: reductions.TriangleOracle}, nil
		}, rebuiltBy(func(g *graph.Graph) bool { return !graph.HasTriangle(g) })})
	registerProtocol(ProtocolEntry{"square-prime", "Theorem-3-style BUILD-from-SQUARE transformation over the adjacency oracle (C4-free inputs)", "",
		func(Params) (core.Protocol, error) {
			return reductions.PairPrime{Gadget: reductions.Square, Inner: reductions.SquareOracle}, nil
		}, rebuiltBy(func(g *graph.Graph) bool { return !graph.HasSquare(g) })})
	registerProtocol(ProtocolEntry{"mis-prime", "Theorem 6 BUILD-from-MIS transformation over the adjacency oracle", "n",
		func(p Params) (core.Protocol, error) {
			// The inner rooted-MIS protocol runs on the n+1-node gadget with
			// the fresh node n+1 as root.
			return reductions.PairPrime{Gadget: reductions.MIS, Inner: reductions.MISOracle(p.N + 1)}, nil
		}, rebuiltBy(anyGraph)})
	registerProtocol(ProtocolEntry{"lemma4", "lemma4:<inner> serializes a SIMSYNC protocol into ASYNC by ID-order activation (Lemma 4)", "arg",
		func(p Params) (core.Protocol, error) {
			if p.Arg == "" {
				return nil, fmt.Errorf("registry: lemma4 wants an inner protocol, e.g. lemma4:mis")
			}
			inner, err := NewProtocol(p.Arg, Params{N: p.N, K: p.K, P: p.P, Seed: p.Seed})
			if err != nil {
				return nil, err
			}
			if inner.Model() != core.SimSync {
				return nil, fmt.Errorf("registry: lemma4 inner protocol %q is %s, want SIMSYNC", inner.Name(), inner.Model())
			}
			return reductions.SimSyncAsAsync{Inner: inner}, nil
		}, nil})

	registerGraph(GraphEntry{"path", "path on n nodes", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) { return graph.Path(p.N), nil }})
	registerGraph(GraphEntry{"cycle", "cycle on n nodes", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) { return graph.Cycle(p.N), nil }})
	registerGraph(GraphEntry{"star", "star on n nodes", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) { return graph.Star(p.N), nil }})
	registerGraph(GraphEntry{"complete", "complete graph on n nodes", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) { return graph.Complete(p.N), nil }})
	registerGraph(GraphEntry{"grid", "largest side×side grid with side² ≤ n", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) {
			side := 1
			for (side+1)*(side+1) <= p.N {
				side++
			}
			return graph.Grid(side, side), nil
		}})
	registerGraph(GraphEntry{"tree", "uniform random labelled tree (Prüfer)", "n, seed",
		func(p Params, rng *rand.Rand) (*graph.Graph, error) { return graph.RandomTree(p.N, rng), nil }})
	registerGraph(GraphEntry{"forest", "random forest: tree with edges kept w.p. p", "n, p, seed",
		func(p Params, rng *rand.Rand) (*graph.Graph, error) { return graph.RandomForest(p.N, p.P, rng), nil }})
	registerGraph(GraphEntry{"gnp", "Erdős–Rényi G(n,p)", "n, p, seed",
		func(p Params, rng *rand.Rand) (*graph.Graph, error) { return graph.RandomGNP(p.N, p.P, rng), nil }})
	registerGraph(GraphEntry{"connected-gnp", "G(n,p) with a random spanning tree forced in", "n, p, seed",
		func(p Params, rng *rand.Rand) (*graph.Graph, error) {
			return graph.RandomConnectedGNP(p.N, p.P, rng), nil
		}})
	registerGraph(GraphEntry{"kdeg", "random graph of degeneracy ≤ k", "n, k, seed",
		func(p Params, rng *rand.Rand) (*graph.Graph, error) {
			return graph.RandomKDegenerate(p.N, p.K, rng), nil
		}})
	registerGraph(GraphEntry{"split", "random split-degenerate graph", "n, k, seed",
		func(p Params, rng *rand.Rand) (*graph.Graph, error) {
			return graph.RandomSplitDegenerate(p.N, p.K, rng), nil
		}})
	registerGraph(GraphEntry{"eob", "random even-odd-bipartite graph", "n, p, seed",
		func(p Params, rng *rand.Rand) (*graph.Graph, error) { return graph.RandomEOB(p.N, p.P, rng), nil }})
	registerGraph(GraphEntry{"bipartite", "random bipartite graph", "n, p, seed",
		func(p Params, rng *rand.Rand) (*graph.Graph, error) { return graph.RandomBipartite(p.N, p.P, rng), nil }})
	registerGraph(GraphEntry{"two-cliques", "two disjoint (n/2)-cliques", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) { return graph.TwoCliques(p.N/2, nil), nil }})
	registerGraph(GraphEntry{"swapped", "two cliques with one crossing swap (the no-instance)", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) { return graph.TwoCliquesSwapped(p.N/2, nil), nil }})
	registerGraph(GraphEntry{"polarity", "Erdős–Rényi polarity graph ER_q for the largest prime q with q²+q+1 ≤ n", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) {
			q := 2
			for nxt := q + 1; nxt*nxt+nxt+1 <= p.N; nxt++ {
				if isPrime(nxt) {
					q = nxt
				}
			}
			return graph.PolarityGraph(q), nil
		}})
	registerGraph(GraphEntry{"cycle-iso", "cycle on n−1 nodes plus one isolated node (the Open Problem 3 deadlock-witness family)", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) {
			if p.N < 4 {
				return nil, fmt.Errorf("registry: cycle-iso needs n ≥ 4, got %d", p.N)
			}
			g := graph.New(p.N)
			for v := 1; v+1 < p.N; v++ {
				g.AddEdge(v, v+1)
			}
			g.AddEdge(1, p.N-1)
			return g, nil
		}})
	registerGraph(GraphEntry{"empty", "edgeless graph on n nodes", "n",
		func(p Params, _ *rand.Rand) (*graph.Graph, error) { return graph.New(p.N), nil }})

	registerAdversary(AdversaryEntry{"min", "always the smallest eligible identifier", "",
		func(Params) (adversary.Adversary, error) { return adversary.MinID{}, nil }})
	registerAdversary(AdversaryEntry{"max", "always the largest eligible identifier", "",
		func(Params) (adversary.Adversary, error) { return adversary.MaxID{}, nil }})
	registerAdversary(AdversaryEntry{"rotor", "deterministic rotating pick across the candidate set", "",
		func(Params) (adversary.Adversary, error) { return adversary.Rotor{}, nil }})
	registerAdversary(AdversaryEntry{"random", "uniformly random, seeded", "seed",
		func(p Params) (adversary.Adversary, error) { return adversary.NewRandom(p.Seed), nil }})
	registerAdversary(AdversaryEntry{"last-activated", "freshest-hand-first heuristic schedule", "",
		func(Params) (adversary.Adversary, error) { return adversary.NewLastActivated(), nil }})
	registerAdversary(AdversaryEntry{"stubborn", "stubborn:<id> delays node id as long as any other candidate exists", "arg",
		func(p Params) (adversary.Adversary, error) {
			victim, err := strconv.Atoi(p.Arg)
			if err != nil {
				return nil, fmt.Errorf("registry: stubborn wants a node id, got %q", p.Arg)
			}
			return adversary.Stubborn{Victim: victim, Inner: adversary.MinID{}}, nil
		}})
	registerAdversary(AdversaryEntry{"scripted", "scripted:<v1,v2,...> replays a fixed total write order (sugar for script:prefer(v1,...,vk))", "arg",
		func(p Params) (adversary.Adversary, error) {
			if p.Arg == "" {
				return nil, fmt.Errorf("registry: scripted wants a comma-separated order, e.g. scripted:3,1,2")
			}
			prog, err := scenario.Compile("prefer("+p.Arg+")", scenario.ModeChoose, p.Scenario)
			if err != nil {
				return nil, fmt.Errorf("registry: scripted order %q: %w", p.Arg, err)
			}
			return scenario.NewAdversary(prog)
		}})
	registerAdversary(AdversaryEntry{"script", `script:<expr> compiles a scenario-DSL writer-choice expression (see the README's "Scripted scenarios"); the bare name "script" reads the spec's script field`, "arg, script",
		func(p Params) (adversary.Adversary, error) {
			src := p.Arg
			if src == "" {
				src = p.Script
			}
			if src == "" {
				return nil, fmt.Errorf(`registry: script wants an expression (script:<expr>) or a spec-level "script" field`)
			}
			prog, err := scenario.Compile(src, scenario.ModeChoose, p.Scenario)
			if err != nil {
				return nil, fmt.Errorf("registry: adversary script: %w", err)
			}
			return scenario.NewAdversary(prog)
		}})

	registerProtocol(ProtocolEntry{"gate", "gate:<inner>:<pred> wraps a protocol with a scenario-DSL activation predicate over (id, n, degree, boardlen); the inner name must be colon-free", "arg",
		func(p Params) (core.Protocol, error) {
			innerName, pred, ok := strings.Cut(p.Arg, ":")
			if !ok || innerName == "" || pred == "" {
				return nil, fmt.Errorf("registry: gate wants gate:<inner>:<pred>, e.g. gate:bfs:id %% 2 == 1")
			}
			inner, err := NewProtocol(innerName, Params{N: p.N, K: p.K, P: p.P, Seed: p.Seed})
			if err != nil {
				return nil, err
			}
			prog, err := scenario.Compile(pred, scenario.ModeActivate, p.Scenario)
			if err != nil {
				return nil, fmt.Errorf("registry: gate predicate: %w", err)
			}
			return scenario.NewGate(inner, prog)
		}, nil})
}

// splitName separates "name:arg" at the first colon.
func splitName(spec string) (name, arg string) {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i], spec[i+1:]
	}
	return spec, ""
}

// NewProtocol constructs the protocol registered under spec.
func NewProtocol(spec string, p Params) (core.Protocol, error) {
	name, arg := splitName(spec)
	e, ok := protocols[name]
	if !ok {
		return nil, unknown("protocol", name, Protocols())
	}
	p.Arg = arg
	return e.Build(p.Defaults())
}

// CheckOutput checks out, one output of the protocol registered under spec
// on g, with the entry's Check: the protocol's promise, then the reference
// its output must match. It reads n from g, so p need carry only the other
// parameters the protocol was built with. The error names the protocol,
// the graph and what is wrong; an entry without a check is an error too.
func CheckOutput(spec string, p Params, g *graph.Graph, out any) error {
	name, arg := splitName(spec)
	e, ok := protocols[name]
	if !ok {
		return unknown("protocol", name, Protocols())
	}
	if e.Check == nil {
		return fmt.Errorf("registry: protocol %q has no output check", name)
	}
	p.Arg, p.N = arg, g.N()
	if err := e.Check(p, g, out); err != nil {
		return fmt.Errorf("%s on %v: %w", spec, g, err)
	}
	return nil
}

// NewGraph constructs the graph registered under spec, drawing randomness
// from rng (which may be nil for deterministic families). A generator that
// rejects its parameters by panicking (graph.Cycle below 3 nodes, say)
// fails with the panic's text as the error.
func NewGraph(spec string, p Params, rng *rand.Rand) (g *graph.Graph, err error) {
	name, arg := splitName(spec)
	e, ok := graphs[name]
	if !ok {
		return nil, unknown("graph", name, Graphs())
	}
	p.Arg = arg
	p = p.Defaults()
	if rng == nil {
		rng = rand.New(rand.NewSource(p.Seed))
	}
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("%v", r)
		}
	}()
	return e.Build(p, rng)
}

// NewAdversary constructs the adversary registered under spec
// (e.g. "min", "stubborn:3", "scripted:3,1,2").
func NewAdversary(spec string, p Params) (adversary.Adversary, error) {
	name, arg := splitName(spec)
	e, ok := adversaries[name]
	if !ok {
		return nil, unknown("adversary", name, Adversaries())
	}
	p.Arg = arg
	return e.Build(p.Defaults())
}

// MustProtocol is NewProtocol for specs known to be registered; it panics
// on error. It exists for cmd/ tools wiring fixed demos.
func MustProtocol(spec string, p Params) core.Protocol {
	pr, err := NewProtocol(spec, p)
	if err != nil {
		panic(err)
	}
	return pr
}

// MustGraph is NewGraph for specs known to be registered; it panics on
// error.
func MustGraph(spec string, p Params, rng *rand.Rand) *graph.Graph {
	g, err := NewGraph(spec, p, rng)
	if err != nil {
		panic(err)
	}
	return g
}

// MustAdversary is NewAdversary for specs known to be registered; it
// panics on error.
func MustAdversary(spec string, p Params) adversary.Adversary {
	a, err := NewAdversary(spec, p)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseModel resolves a model name (case-insensitive); "" and "native"
// mean "use the protocol's declared model" and return nil.
func ParseModel(s string) (*core.Model, error) {
	if s == "" || strings.EqualFold(s, "native") {
		return nil, nil
	}
	for _, m := range core.AllModels {
		if strings.EqualFold(m.String(), s) {
			mm := m
			return &mm, nil
		}
	}
	names := make([]string, 0, len(core.AllModels)+1)
	for _, m := range core.AllModels {
		names = append(names, m.String())
	}
	names = append(names, "native")
	return nil, unknown("model", strings.ToUpper(s), names)
}

// Protocols returns the registered protocol names, sorted.
func Protocols() []string { return sortedKeys(protocols) }

// Graphs returns the registered graph-generator names, sorted.
func Graphs() []string { return sortedKeys(graphs) }

// Adversaries returns the registered adversary names, sorted.
func Adversaries() []string { return sortedKeys(adversaries) }

// ProtocolDoc returns the entry registered under name, for help text.
func ProtocolDoc(name string) (ProtocolEntry, bool) { e, ok := protocols[name]; return e, ok }

// GraphDoc returns the entry registered under name, for help text.
func GraphDoc(name string) (GraphEntry, bool) { e, ok := graphs[name]; return e, ok }

// AdversaryDoc returns the entry registered under name, for help text.
func AdversaryDoc(name string) (AdversaryEntry, bool) { e, ok := adversaries[name]; return e, ok }

// FlagHelp joins names with '|' for one-line flag usage strings.
func FlagHelp(names []string) string { return strings.Join(names, "|") }

func sortedKeys[E any](m map[string]E) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// unknown builds the "did you mean" error for a name miss.
func unknown(kind, name string, known []string) error {
	if s := suggest.Closest(name, known); s != "" {
		return fmt.Errorf("registry: unknown %s %q (did you mean %q? known: %s)",
			kind, name, s, strings.Join(known, ", "))
	}
	return fmt.Errorf("registry: unknown %s %q (known: %s)", kind, name, strings.Join(known, ", "))
}

func isPrime(q int) bool {
	if q < 2 {
		return false
	}
	for d := 2; d*d <= q; d++ {
		if q%d == 0 {
			return false
		}
	}
	return true
}

// misRoot is the root of the mis and oracle-mis builders: k, or 1 when k is
// outside [1, n] (any k ≥ 1 stands when n is unset).
func misRoot(p Params) int {
	if p.K < 1 || (p.N > 0 && p.K > p.N) {
		return 1
	}
	return p.K
}

// checkAs adapts a check of outputs of type T to an entry's Check.
func checkAs[T any](check func(p Params, g *graph.Graph, out T) error) func(Params, *graph.Graph, any) error {
	return func(p Params, g *graph.Graph, out any) error {
		t, ok := out.(T)
		if !ok {
			return fmt.Errorf("output %T, want %T", out, t)
		}
		return check(p, g, t)
	}
}

// built checks a BUILD protocol's answer: g rebuilt exactly inside the
// promise, a rejection outside it.
func built(promise bool, g, got *graph.Graph, inClass bool) error {
	switch {
	case promise && (!inClass || !got.Equal(g)):
		return fmt.Errorf("answered %v (in class: %v) inside the promise", got, inClass)
	case !promise && inClass:
		return errors.New("accepted an input outside the promise")
	}
	return nil
}

// rebuiltBy is a prime's check: g rebuilt exactly inside the promise, any
// graph outside it.
func rebuiltBy(promise func(*graph.Graph) bool) func(Params, *graph.Graph, any) error {
	return checkAs(func(_ Params, g, got *graph.Graph) error {
		if promise(g) && !got.Equal(g) {
			return fmt.Errorf("rebuilt %v", got)
		}
		return nil
	})
}

// canonicalForest is a BFS protocol's check: g's canonical BFS forest
// inside the promise; outside it, a rejection when reject is set and any
// forest otherwise.
func canonicalForest(promise func(*graph.Graph) bool, reject bool) func(Params, *graph.Graph, any) error {
	return checkAs(func(_ Params, g *graph.Graph, f bfs.Forest) error {
		if !promise(g) {
			if reject && f.Valid {
				return errors.New("accepted an input outside the promise")
			}
			return nil
		}
		if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
			return errors.New(msg)
		}
		return nil
	})
}

func anyGraph(*graph.Graph) bool { return true }
