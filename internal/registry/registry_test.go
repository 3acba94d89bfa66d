package registry

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/protocols/bfs"
	"repro/internal/protocols/buildforest"
	"repro/internal/protocols/buildkdeg"
	"repro/internal/protocols/connectivity"
	"repro/internal/protocols/twocliques"
)

// TestEveryProtocolConstructsWithDefaults exercises each registered
// protocol name with default params, supplying the colon-argument where
// the schema wants one.
func TestEveryProtocolConstructsWithDefaults(t *testing.T) {
	specFor := map[string]string{
		"lemma4": "lemma4:mis",
		"gate":   "gate:mis:id >= 1",
	}
	for _, name := range Protocols() {
		spec := name
		if s, ok := specFor[name]; ok {
			spec = s
		}
		p, err := NewProtocol(spec, Params{})
		if err != nil {
			t.Errorf("protocol %q: %v", name, err)
			continue
		}
		if p.Name() == "" {
			t.Errorf("protocol %q constructed with empty Name()", name)
		}
		if p.MaxMessageBits(16) < 1 {
			t.Errorf("protocol %q has non-positive budget at n=16", name)
		}
		e, ok := ProtocolDoc(name)
		if !ok || e.Doc == "" {
			t.Errorf("protocol %q has no doc string", name)
		}
	}
}

// TestEveryGraphConstructsWithDefaults exercises each registered graph
// family with default params and checks basic shape.
func TestEveryGraphConstructsWithDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, name := range Graphs() {
		g, err := NewGraph(name, Params{N: 12}, rng)
		if err != nil {
			t.Errorf("graph %q: %v", name, err)
			continue
		}
		if g.N() < 1 {
			t.Errorf("graph %q has %d nodes", name, g.N())
		}
		if e, ok := GraphDoc(name); !ok || e.Doc == "" {
			t.Errorf("graph %q has no doc string", name)
		}
	}
}

// TestEveryAdversaryConstructsWithDefaults exercises each registered
// adversary, supplying the colon-argument where the schema wants one.
func TestEveryAdversaryConstructsWithDefaults(t *testing.T) {
	specFor := map[string]string{
		"stubborn": "stubborn:3",
		"scripted": "scripted:3,1,2",
		"script":   "script:min(candidates)",
	}
	for _, name := range Adversaries() {
		spec := name
		if s, ok := specFor[name]; ok {
			spec = s
		}
		a, err := NewAdversary(spec, Params{})
		if err != nil {
			t.Errorf("adversary %q: %v", spec, err)
			continue
		}
		if got := a.Choose(1, []int{2, 5, 9}, nil); got != 2 && got != 5 && got != 9 {
			t.Errorf("adversary %q chose %d, not a candidate", spec, got)
		}
		if e, ok := AdversaryDoc(name); !ok || e.Doc == "" {
			t.Errorf("adversary %q has no doc string", name)
		}
	}
}

func TestScriptedAdversaryOrder(t *testing.T) {
	a, err := NewAdversary("scripted:3,1,2", Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Choose(1, []int{1, 2, 3}, nil); got != 3 {
		t.Errorf("scripted:3,1,2 chose %d first, want 3", got)
	}
	if got := a.Choose(2, []int{1, 2}, nil); got != 1 {
		t.Errorf("scripted:3,1,2 chose %d second, want 1", got)
	}
}

func TestBadColonArguments(t *testing.T) {
	for _, spec := range []string{"stubborn:", "stubborn:xyz", "scripted:", "scripted:1,a", "rand-cliques:0", "rand-cliques:x",
		"lemma4:", "lemma4:nope", "lemma4:bfs", /* bfs is SYNC, not SIMSYNC */
		"script:", "script:1 +", "script:id > 0", /* activate-mode variable in choose mode */
		"gate:", "gate:mis", "gate:nope:id >= 1", "gate:mis:min(candidates)" /* choose-mode call in a predicate */} {
		var err error
		if strings.HasPrefix(spec, "rand-cliques") || strings.HasPrefix(spec, "lemma4") || strings.HasPrefix(spec, "gate") {
			_, err = NewProtocol(spec, Params{})
		} else {
			_, err = NewAdversary(spec, Params{})
		}
		if err == nil {
			t.Errorf("%q: want error, got none", spec)
		}
	}
}

// TestReductionProtocolsRunEndToEnd constructs the newly registered
// reduction/oracle protocols the way a campaign cell would and checks
// they carry the paper's Θ(n)-bit message budget.
func TestReductionProtocolsRunEndToEnd(t *testing.T) {
	for _, name := range []string{"oracle-triangle", "oracle-square", "oracle-bfs", "oracle-mis",
		"triangle-prime", "square-prime", "mis-prime"} {
		p, err := NewProtocol(name, Params{N: 8, K: 1})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if p.MaxMessageBits(8) <= 8 {
			t.Errorf("%s: budget %d at n=8, want Θ(n)-bit messages", name, p.MaxMessageBits(8))
		}
	}
	// lemma4's wrapper must report the translated model.
	p, err := NewProtocol("lemma4:mis", Params{N: 8, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Model().Asynchronous() != true {
		t.Errorf("lemma4:mis model = %v, want an asynchronous model", p.Model())
	}
}

// TestUnknownNamesSuggest checks the did-you-mean machinery on close typos
// of each kind.
func TestUnknownNamesSuggest(t *testing.T) {
	cases := []struct {
		kind, spec, want string
	}{
		{"protocol", "bffs", `"bfs"`},
		{"protocol", "msi", `"mis"`},
		{"graph", "gnpp", `"gnp"`},
		{"graph", "cyle", `"cycle"`},
		{"adversary", "minn", `"min"`},
		{"adversary", "rotot", `"rotor"`},
	}
	for _, c := range cases {
		var err error
		switch c.kind {
		case "protocol":
			_, err = NewProtocol(c.spec, Params{})
		case "graph":
			_, err = NewGraph(c.spec, Params{}, nil)
		case "adversary":
			_, err = NewAdversary(c.spec, Params{})
		}
		if err == nil {
			t.Errorf("%s %q: want error, got none", c.kind, c.spec)
			continue
		}
		if !strings.Contains(err.Error(), "did you mean") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %q: error %q does not suggest %s", c.kind, c.spec, err, c.want)
		}
		if !strings.Contains(err.Error(), "known:") {
			t.Errorf("%s %q: error %q does not list known names", c.kind, c.spec, err)
		}
	}
}

func TestUnknownFarNameListsAllWithoutSuggestion(t *testing.T) {
	_, err := NewProtocol("quicksort", Params{})
	if err == nil {
		t.Fatal("want error for unknown protocol")
	}
	if strings.Contains(err.Error(), "did you mean") {
		t.Errorf("error %q suggests a name for a far-off typo", err)
	}
}

func TestParseModel(t *testing.T) {
	for _, s := range []string{"SIMASYNC", "simsync", "Async", "SYNC"} {
		m, err := ParseModel(s)
		if err != nil || m == nil {
			t.Errorf("ParseModel(%q) = %v, %v", s, m, err)
		}
	}
	for _, s := range []string{"", "native", "NATIVE"} {
		m, err := ParseModel(s)
		if err != nil || m != nil {
			t.Errorf("ParseModel(%q) = %v, %v; want nil, nil", s, m, err)
		}
	}
	if _, err := ParseModel("SIMSINC"); err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Errorf("ParseModel typo: got %v", err)
	}
}

func TestMISRootRule(t *testing.T) {
	// Both MIS builders root at k, or at 1 when k is outside [1, n].
	for _, c := range []struct {
		p    Params
		root int
	}{
		{Params{K: 15, N: 10}, 1},
		{Params{K: 10, N: 10}, 10},
		{Params{K: 0, N: 10}, 1},
		{Params{K: 5}, 5}, // n unset: any k ≥ 1 stands
	} {
		for _, name := range []string{"mis", "oracle-mis"} {
			got := MustProtocol(name, c.p).Name()
			if want := "(x=" + strconv.Itoa(c.root) + ")"; !strings.HasSuffix(got, want) {
				t.Errorf("%s with k=%d, n=%d: %s, want root %d", name, c.p.K, c.p.N, got, c.root)
			}
		}
	}
}

func TestSmallCyclesRejected(t *testing.T) {
	_, errCycle := NewGraph("cycle", Params{N: 2}, nil)
	_, errIso := NewGraph("cycle-iso", Params{N: 3}, nil)
	if g := MustGraph("cycle-iso", Params{N: 4}, nil); errCycle == nil || errIso == nil || g.M() != 3 || g.Degree(4) != 0 {
		t.Errorf("cycle at n=2: %v; cycle-iso at n=3: %v; at n=4: %v, want two errors, then a triangle and an isolated node",
			errCycle, errIso, g)
	}
}

// TestCheckOutput runs every protocol that has a check on a small input
// inside its promise: the output passes and a corrupted copy fails. The
// protocols without a check are listed, so one registered later without a
// check fails here.
func TestCheckOutput(t *testing.T) {
	unchecked := []string{"gate", "lemma4", "oracle-bfs", "oracle-mis", "oracle-square", "oracle-triangle", "rand-cliques"}
	// The corruptions add the edge {1, n}, which no case's output holds.
	plusEdge := func(h *graph.Graph) *graph.Graph { h = h.Clone(); h.AddEdge(1, h.N()); return h }
	rebuilt := func(out any) any { return plusEdge(out.(*graph.Graph)) }
	movedParent := func(out any) any {
		f := out.(bfs.Forest)
		f.Parent = slices.Clone(f.Parent)
		f.Parent[len(f.Parent)-1]++
		return f
	}
	cases := map[string]struct {
		p       Params
		g       *graph.Graph
		corrupt func(out any) any
	}{
		"build-forest": {Params{}, graph.Path(8), func(any) any { return buildforest.Decoded{InClass: false} }},
		"build-kdeg": {Params{K: 2}, graph.Grid(3, 3), func(out any) any {
			return buildkdeg.Decoded{Graph: plusEdge(out.(buildkdeg.Decoded).Graph), InClass: true}
		}},
		"build-split":    {Params{K: 1}, graph.Complement(graph.Path(7)), func(any) any { return buildkdeg.Decoded{InClass: false} }},
		"mis":            {Params{K: 3}, graph.Cycle(7), func(out any) any { return out.([]int)[1:] }},
		"two-cliques":    {Params{}, graph.TwoCliques(3, nil), func(out any) any { return twocliques.Output{TwoCliques: !out.(twocliques.Output).TwoCliques} }},
		"bfs":            {Params{}, graph.Grid(3, 3), movedParent},
		"bfs-cached":     {Params{}, graph.Grid(3, 3), movedParent},
		"eob-bfs":        {Params{}, graph.Grid(3, 3), movedParent},
		"bipartite-bfs":  {Params{}, graph.Grid(3, 3), movedParent},
		"connectivity":   {Params{}, graph.Path(5), func(any) any { return connectivity.Answer{Connected: false, Components: 1} }},
		"subgraph":       {Params{K: 4}, graph.Complete(6), rebuilt},
		"triangle-prime": {Params{}, graph.Grid(3, 3), rebuilt},
		"square-prime":   {Params{}, graph.Path(5), rebuilt},
		"mis-prime":      {Params{}, graph.Path(6), rebuilt},
	}
	for _, name := range Protocols() {
		e, _ := ProtocolDoc(name)
		c, ok := cases[name]
		if (e.Check == nil) == ok || (e.Check == nil) != slices.Contains(unchecked, name) {
			t.Errorf("%s: has a check %v, a case %v, listed unchecked %v", name, e.Check != nil, ok, slices.Contains(unchecked, name))
			continue
		}
		if !ok {
			if err := CheckOutput(name, Params{}, graph.Path(3), nil); err == nil {
				t.Errorf("%s: CheckOutput without a check passed", name)
			}
			continue
		}
		c.p.N = c.g.N()
		res := engine.Run(MustProtocol(name, c.p), c.g, adversary.Rotor{}, engine.Options{})
		if res.Status != core.Success {
			t.Errorf("%s on %v: %v (%v)", name, c.g, res.Status, res.Err)
			continue
		}
		if err := CheckOutput(name, c.p, c.g, res.Output); err != nil {
			t.Errorf("correct output rejected: %v", err)
		}
		if err := CheckOutput(name, c.p, c.g, c.corrupt(res.Output)); err == nil {
			t.Errorf("%s on %v: corrupted output %v passed", name, c.g, c.corrupt(res.Output))
		}
	}
}

// TestTwoCliquesOutsideThePromise pins an input outside the two-cliques
// promise that the protocol calls two cliques: the single edge {1,2} on 4
// nodes reads yes on 12 of its 24 schedules. The check accepts every answer.
func TestTwoCliquesOutsideThePromise(t *testing.T) {
	g := graph.FromEdges(4, [][2]int{{1, 2}})
	yes := 0
	stats, err := engine.RunAll(MustProtocol("two-cliques", Params{}), g, engine.Options{}, 1<<10,
		func(res *core.Result, _ []int) error {
			if res.Status != core.Success {
				return res.Err
			}
			if res.Output.(twocliques.Output).TwoCliques {
				yes++
			}
			return CheckOutput("two-cliques", Params{}, g, res.Output)
		})
	if err != nil || stats.Schedules != 24 || yes != 12 {
		t.Errorf("%v: yes on %d of %d schedules (%v), want 12 of 24", g, yes, stats.Schedules, err)
	}
}
