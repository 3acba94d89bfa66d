package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols/mis"
	"repro/internal/telemetry"
)

// TestMemoMatchesNaiveLocalProtocols cross-checks the memoized walk
// against the naive enumeration on the package's own protocol zoo,
// including a deadlocking and a failing one.
func TestMemoMatchesNaiveLocalProtocols(t *testing.T) {
	cases := []struct {
		name  string
		p     core.Protocol
		g     *graph.Graph
		model *core.Model
	}{
		{"id-echo/path4", idEcho{}, graph.Path(4), nil},
		{"id-echo/cycle5", idEcho{}, graph.Cycle(5), nil},
		{"chain/path4", chainProto{}, graph.Path(4), nil},
		{"chain-stall/path4", chainProto{stallAt: 3}, graph.Path(4), nil},
		{"sees-board/path5", lastWriterSees{}, graph.Path(5), nil},
		{"sees-board/cycle5-simasync", lastWriterSees{}, graph.Cycle(5), ModelPtr(core.SimAsync)},
		{"mis-like/path5", misLike{}, graph.Path(5), nil},
	}
	for _, c := range cases {
		naive, errN := treeWalkSpectrum(c.p, c.g, Options{Model: c.model}, 1<<20)
		memo, errM := OutputSpectrum(c.p, c.g, Options{Model: c.model}, 1<<20)
		if (errN != nil) != (errM != nil) {
			t.Fatalf("%s: naive err %v, memo err %v", c.name, errN, errM)
		}
		if errN != nil {
			continue
		}
		if naive.Schedules != memo.Schedules || naive.Deadlocks != memo.Deadlocks || naive.Failures != memo.Failures {
			t.Errorf("%s: schedules/deadlocks/failures %d/%d/%d vs %d/%d/%d", c.name,
				naive.Schedules, naive.Deadlocks, naive.Failures, memo.Schedules, memo.Deadlocks, memo.Failures)
		}
		if !reflect.DeepEqual(naive.Outputs, memo.Outputs) {
			t.Errorf("%s: outputs %v vs %v", c.name, naive.Outputs, memo.Outputs)
		}
		if naive.Steps != memo.Steps+memo.StepsSaved {
			t.Errorf("%s: naive steps %d != memo %d + saved %d", c.name, naive.Steps, memo.Steps, memo.StepsSaved)
		}
	}
}

// TestMemoCollapseExactCounts pins the DAG shape on the maximally
// collapsing 1-bit protocol: on a path with n=4 all messages except the
// first are identical, so classes at depth k are the C(4,k) done-sets and
// the memoized walk simulates Σ C(4,k)·(4−k) = 32 writes where the naive
// tree walk simulates Σ P(4,k)·(4−k) = 64 — while the schedule count stays
// exactly 4! = 24.
func TestMemoCollapseExactCounts(t *testing.T) {
	var terminals int
	stats, err := RunAllMemo(lastWriterSees{}, graph.Path(4), Options{}, 1<<20,
		func(res *core.Result, mult *big.Int) error {
			terminals++
			if res.Status != core.Success {
				t.Errorf("terminal status %v", res.Status)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Steps != 32 || stats.NaiveSteps.Int64() != 64 {
		t.Errorf("steps = %d, naive steps = %s; want 32, 64", stats.Steps, stats.NaiveSteps)
	}
	if stats.Schedules.Int64() != 24 {
		t.Errorf("schedules = %s, want 24", stats.Schedules)
	}
	// One class per (done-set size, first-writer-or-not) — the board after
	// k ≥ 1 writes is the same for every order, so classes are the done-sets:
	// Σ_k C(4,k) = 16 classes.
	if stats.Classes != 16 {
		t.Errorf("classes = %d, want 16", stats.Classes)
	}
	if terminals != 1 {
		t.Errorf("terminal classes = %d, want 1 (all orders end on the same board)", terminals)
	}
}

// TestMemoizedStrictlyFewerSteps is the smoke assertion behind the CI
// equivalence job: on a collapsing protocol the memoized walk must
// simulate strictly fewer writes than the naive walk while reproducing its
// tallies exactly.
func TestMemoizedStrictlyFewerSteps(t *testing.T) {
	g := graph.Cycle(6)
	p := mis.Protocol{Root: 1}
	naive, err := treeWalkSpectrum(p, g, Options{}, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	memo, err := OutputSpectrum(p, g, Options{}, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if memo.Steps >= naive.Steps {
		t.Fatalf("memoized %d steps, naive %d — no collapse", memo.Steps, naive.Steps)
	}
	if memo.Schedules != naive.Schedules || !reflect.DeepEqual(memo.Outputs, naive.Outputs) {
		t.Fatalf("tallies diverged: %+v vs %+v", memo, naive)
	}
	if memo.StepsSaved != naive.Steps-memo.Steps {
		t.Errorf("steps saved %d, want %d", memo.StepsSaved, naive.Steps-memo.Steps)
	}
	if memo.Classes == 0 {
		t.Error("memoized walk reported no classes")
	}
}

// TestMemoMetricFamilies pins the two memo counters of a live registry on
// a collapsing walk (rooted MIS on a 6-cycle). Every step either opens a
// class or lands in a known one, and the root class opens without a step,
// so wb_engine_memo_hits_total is Steps − Classes + 1. Every step, hit and
// terminal class adds one multiplicity, so wb_engine_memo_mult_adds_total
// is Steps + hits + terminal classes.
func TestMemoMetricFamilies(t *testing.T) {
	set := telemetry.NewSet()
	terminals := 0
	stats, err := RunAllMemo(mis.Protocol{Root: 1}, graph.Cycle(6), Options{Metrics: set.Engine}, 1<<22,
		func(*core.Result, *big.Int) error {
			terminals++
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := set.Registry.WriteText(&body); err != nil {
		t.Fatal(err)
	}
	value := func(family string) int {
		t.Helper()
		for _, line := range strings.Split(body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, family+" "); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("%s: %v", line, err)
				}
				return n
			}
		}
		t.Fatalf("exposition lacks %s:\n%s", family, body.String())
		return 0
	}
	hits := value("wb_engine_memo_hits_total")
	if want := stats.Steps - stats.Classes + 1; hits != want || hits <= 0 {
		t.Errorf("wb_engine_memo_hits_total %d, want Steps − Classes + 1 = %d − %d + 1 = %d, and > 0",
			hits, stats.Steps, stats.Classes, want)
	}
	if adds, want := value("wb_engine_memo_mult_adds_total"), stats.Steps+hits+terminals; adds != want {
		t.Errorf("wb_engine_memo_mult_adds_total %d, want Steps + hits + terminal classes = %d + %d + %d = %d",
			adds, stats.Steps, hits, terminals, want)
	}
}

// TestMemoizedCompletesWhereNaiveExhausts is the feasibility frontier made
// a test: on rooted MIS over a 6-cycle a 1500-write budget is enough for
// the memoized DAG walk (1142 unique writes) but not for the tree walk
// (1956), so the same budget completes memoized and exhausts the tree walk
// after exactly 1500 writes.
func TestMemoizedCompletesWhereNaiveExhausts(t *testing.T) {
	const budget = 1500
	g := graph.Cycle(6)
	p := mis.Protocol{Root: 1}
	memo, err := OutputSpectrum(p, g, Options{}, budget)
	if err != nil {
		t.Fatalf("memoized walk should complete within %d steps: %v", budget, err)
	}
	if memo.Schedules != 720 || memo.Steps != 1142 || memo.Steps+memo.StepsSaved != 1956 {
		t.Errorf("memoized walk: %d schedules, %d steps + %d saved; want 720, 1142 + 814",
			memo.Schedules, memo.Steps, memo.StepsSaved)
	}
	naive, err := treeWalkSpectrum(p, g, Options{}, budget)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("tree walk err = %v, want ErrBudget", err)
	}
	if naive.Steps != budget {
		t.Errorf("tree walk burned %d steps, want exactly the %d budget", naive.Steps, budget)
	}
}

// TestRunAllBudgetExactPartialStats pins the budget contract after the
// off-by-one fix: on ErrBudget exactly maxSteps writes were simulated and
// stats reports exactly that, with the schedules completed so far. (The
// old code incremented before checking, reporting maxSteps+1.)
func TestRunAllBudgetExactPartialStats(t *testing.T) {
	stats, err := RunAll(idEcho{}, graph.Path(6), Options{}, 10,
		func(*core.Result, []int) error { return nil })
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if stats.Steps != 10 {
		t.Errorf("stats.Steps = %d, want exactly the budget 10", stats.Steps)
	}
	// DFS order on a 6-node SIMASYNC path completes schedules [1..6] and
	// [1,2,3,4,6,5] within the first 8 writes; the budget dies mid-branch
	// [1,2,3,5,4,·] at the 11th attempted write.
	if stats.Schedules != 2 {
		t.Errorf("stats.Schedules = %d, want 2", stats.Schedules)
	}
}

// TestRunAllMemoBudget mirrors the budget contract for the memoized walk.
func TestRunAllMemoBudget(t *testing.T) {
	stats, err := RunAllMemo(idEcho{}, graph.Path(6), Options{}, 10,
		func(*core.Result, *big.Int) error { return nil })
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if stats.Steps != 10 {
		t.Errorf("stats.Steps = %d, want exactly the budget 10", stats.Steps)
	}
}

// TestRunAllMemoPropagatesVisitError mirrors RunAll's check-error contract.
func TestRunAllMemoPropagatesVisitError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := RunAllMemo(idEcho{}, graph.Path(3), Options{}, 1000,
		func(*core.Result, *big.Int) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

// appendConfigKey appends an injective encoding of a configuration — the
// ordered board, the per-node states, and (for asynchronous models, where
// messages freeze at activation) the pending message of every active node —
// to buf and returns the extended slice. Every variable-length component is
// length-prefixed, so distinct configurations can never encode alike; the
// board's human-oriented Key() has no such guarantee (a message whose data
// embeds the separator can mimic two messages), which is why the memoizer
// must not use it. It is the reference RunAllMemo's successor keys
// (appendSuccessorKey) must sort and collide like within a parent board's
// group.
func appendConfigKey(buf []byte, board *core.Board, st *state, includePending bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(st.state)-1))
	buf = binary.AppendUvarint(buf, uint64(board.Len()))
	for i := 0; i < board.Len(); i++ {
		buf = appendMessage(buf, board.At(i))
	}
	return appendStates(buf, st, includePending)
}

// TestConfigKeyDistinguishesBoardKeyAmbiguity documents why the memoizer
// must not key on Board.Key(): a message whose data embeds the rendered
// separator can mimic a two-message board. The length-prefixed config key
// keeps them distinct.
func TestConfigKeyDistinguishesBoardKeyAmbiguity(t *testing.T) {
	one := core.NewBoard()
	one.Append(core.Message{Data: []byte("a|1:b"), Bits: 1})
	two := core.NewBoard()
	two.Append(core.Message{Data: []byte("a"), Bits: 1})
	two.Append(core.Message{Data: []byte("b"), Bits: 1})
	if one.Key() != two.Key() {
		t.Skip("Board.Key became injective; this guard is obsolete")
	}
	st := newState(2)
	k1 := appendConfigKey(nil, one, st, true)
	k2 := appendConfigKey(nil, two, st, true)
	if bytes.Equal(k1, k2) {
		t.Fatal("config key conflated a one-message and a two-message board")
	}
}

// TestConfigKeyCollidesForEqualConfigs is the collapse direction: the same
// configuration assembled along two different write orders (possible when
// message contents coincide) must produce the same key.
func TestConfigKeyCollidesForEqualConfigs(t *testing.T) {
	m := core.Message{Data: []byte{0xAB}, Bits: 8}
	mk := func(order []int) ([]byte, *core.Board) {
		b := core.NewBoard()
		st := newState(3)
		for _, v := range order {
			b.Append(m) // both writers happen to compose identical bytes
			st.state[v] = done
			st.written++
		}
		st.state[3] = active
		st.pending[3] = core.Message{Data: []byte{0x01}, Bits: 2}
		return appendConfigKey(nil, b, st, true), b
	}
	k1, _ := mk([]int{1, 2})
	k2, _ := mk([]int{2, 1})
	if !bytes.Equal(k1, k2) {
		t.Fatal("equal configurations reached via different orders did not collide")
	}
}

// fuzzConfig is a configuration decoded from fuzz bytes.
type fuzzConfig struct {
	board *core.Board
	st    *state
}

// fuzzReader hands out bytes from the fuzz input, zero-padding when it
// runs dry so every input decodes to some configuration.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) byte() byte {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func parseFuzzConfig(r *fuzzReader, n int) fuzzConfig {
	board := core.NewBoard()
	msgs := int(r.byte()) % 7
	readMsg := func() core.Message {
		bits := int(r.byte()) % 40
		dlen := int(r.byte()) % 5
		data := make([]byte, dlen)
		for i := range data {
			data[i] = r.byte()
		}
		return core.Message{Data: data, Bits: bits}
	}
	for i := 0; i < msgs; i++ {
		board.Append(readMsg())
	}
	st := newState(n)
	for v := 1; v <= n; v++ {
		st.state[v] = nodeState(r.byte() % 3)
		if st.state[v] == done {
			st.written++
		}
		st.pending[v] = readMsg()
	}
	return fuzzConfig{board: board, st: st}
}

// equalFuzzConfigs reports semantic configuration equality: same ordered
// board (bit counts and raw data bytes), same node states, and — when
// pending messages matter (asynchronous models) — equal pending messages
// on every active node.
func equalFuzzConfigs(a, b fuzzConfig, pending bool) bool {
	if a.board.Len() != b.board.Len() || len(a.st.state) != len(b.st.state) {
		return false
	}
	eqMsg := func(x, y core.Message) bool {
		return x.Bits == y.Bits && bytes.Equal(x.Data, y.Data)
	}
	for i := 0; i < a.board.Len(); i++ {
		if !eqMsg(a.board.At(i), b.board.At(i)) {
			return false
		}
	}
	for v := 1; v < len(a.st.state); v++ {
		if a.st.state[v] != b.st.state[v] {
			return false
		}
		if pending && a.st.state[v] == active && !eqMsg(a.st.pending[v], b.st.pending[v]) {
			return false
		}
	}
	return true
}

// configKeySeeds are FuzzConfigKey's seeds: an equal pair (all-zero
// decode), a permuted-board pair, a flipped-state pair, and a pending-only
// difference.
var configKeySeeds = []struct {
	pending bool
	data    []byte
}{
	{true, []byte{}},
	{true, []byte{2, 8, 1, 0xAA, 8, 1, 0xBB, 1, 0, 0, 1, 0, 0, 2, 8, 1, 0xBB, 8, 1, 0xAA, 1, 0, 0, 1, 0, 0}},
	{false, []byte{0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0}},
	{true, []byte{0, 1, 4, 1, 0x10, 1, 0, 0, 0, 1, 4, 1, 0x20, 1, 0, 0}},
}

// FuzzConfigKey checks the canonical key's two defining properties on
// arbitrary configuration pairs: distinct configurations (including boards
// that are mere permutations of one another) never collide, and equal
// configurations — however they were assembled — always do.
func FuzzConfigKey(f *testing.F) {
	for _, s := range configKeySeeds {
		f.Add(s.pending, s.data)
	}
	f.Fuzz(func(t *testing.T, pending bool, data []byte) {
		r := &fuzzReader{data: data}
		n := int(r.byte())%5 + 1
		a := parseFuzzConfig(r, n)
		b := parseFuzzConfig(r, n)
		keyA := appendConfigKey(nil, a.board, a.st, pending)
		keyB := appendConfigKey(nil, b.board, b.st, pending)
		equal := equalFuzzConfigs(a, b, pending)
		collide := bytes.Equal(keyA, keyB)
		if equal && !collide {
			t.Fatalf("equal configurations produced different keys:\n%x\n%x", keyA, keyB)
		}
		if !equal && collide {
			t.Fatalf("distinct configurations collided on key %x", keyA)
		}
	})
}

// withLen returns b cut, or padded with empty messages, to k messages.
func withLen(b *core.Board, k int) *core.Board {
	if b.Len() >= k {
		return b.Truncate(k)
	}
	b = b.Clone()
	for b.Len() < k {
		b.Append(core.Message{})
	}
	return b
}

// FuzzMemoSuccessorKey checks the order RunAllMemo builds a level in
// against the full encodings. The walk expands a level's parent boards in
// the order of their full encodings and appends each board's successors to
// the next level as one group, sorted by group key (appendSuccessorKey: the
// appended message, then the node states). On two successor configurations
// whose boards have one length, the full keys must therefore compare as
// the parent boards' full encodings do, and as the group keys do when the
// parents are equal; and a full key must end with the group key. That
// holds only because every message encoding is prefix-free.
func FuzzMemoSuccessorKey(f *testing.F) {
	for _, s := range configKeySeeds {
		f.Add(s.pending, s.data)
	}
	// One parent under different last messages; under one last message
	// with a pending-only difference; under last messages with one data
	// byte but different bit counts; and under one last message with node
	// states whose encodings differ in length (an active node's pending
	// message against a written node's none). Then parents whose first
	// messages' data are one a prefix of the other's, under last messages
	// that sort the other way.
	f.Add(false, []byte{0, 2, 8, 1, 0xAA, 8, 1, 0xBB, 1, 0, 0, 2, 8, 1, 0xAA, 8, 1, 0xBC, 1, 0, 0})
	f.Add(true, []byte{0, 1, 8, 1, 0xAA, 1, 4, 1, 0x10, 1, 8, 1, 0xAA, 1, 4, 1, 0x20})
	f.Add(false, []byte{1, 2, 8, 1, 0x01, 3, 1, 0xE0, 2, 0, 0, 0, 0, 0, 2, 8, 1, 0x01, 4, 1, 0xE0, 2, 0, 0, 0, 0, 0})
	f.Add(true, []byte{1, 1, 8, 1, 0xAA, 1, 4, 1, 0x10, 2, 0, 0, 1, 8, 1, 0xAA, 2, 0, 0, 1, 4, 1, 0x20})
	f.Add(false, []byte{0, 2, 8, 1, 0xAA, 8, 1, 0xFF, 1, 0, 0, 2, 8, 2, 0xAA, 0x00, 8, 1, 0x00, 1, 0, 0})
	f.Fuzz(func(t *testing.T, pending bool, data []byte) {
		r := &fuzzReader{data: data}
		n := int(r.byte())%5 + 1
		a, b := parseFuzzConfig(r, n), parseFuzzConfig(r, n)
		k := max(1, min(a.board.Len(), b.board.Len()))
		a.board, b.board = withLen(a.board, k), withLen(b.board, k)

		// A board's full encoding is a configuration key without nodes.
		parentA := appendConfigKey(nil, a.board.Truncate(k-1), newState(0), false)
		parentB := appendConfigKey(nil, b.board.Truncate(k-1), newState(0), false)
		fullA := appendConfigKey(nil, a.board, a.st, pending)
		fullB := appendConfigKey(nil, b.board, b.st, pending)
		keyA := appendSuccessorKey(nil, a.board.Last(), a.st, pending)
		keyB := appendSuccessorKey(nil, b.board.Last(), b.st, pending)
		if !bytes.HasSuffix(fullA, keyA) || !bytes.HasSuffix(fullB, keyB) {
			t.Fatalf("a full key does not end with its group key:\ngroup %x\n      %x\nfull  %x\n      %x",
				keyA, keyB, fullA, fullB)
		}
		if got, want := bytes.Compare(fullA, fullB), cmp.Or(bytes.Compare(parentA, parentB), bytes.Compare(keyA, keyB)); got != want {
			t.Fatalf("full keys compare %d, parents then group keys %d:\nparent %x\n       %x\ngroup  %x\n       %x\nfull   %x\n       %x",
				got, want, parentA, parentB, keyA, keyB, fullA, fullB)
		}
	})
}

// firstWriterGate is an ASYNC id-echo in which nodes n−1 and n activate
// only once node 1 has written first. A schedule that starts with another
// writer deadlocks two writes short, so terminal classes sit at two depths
// and the walk goes on making classes after visiting the shallower ones.
type firstWriterGate struct{ idEcho }

func (firstWriterGate) Model() core.Model { return core.Async }

func (firstWriterGate) Activate(v core.NodeView, b *core.Board) bool {
	if v.ID < v.N-1 {
		return true
	}
	if b.Empty() {
		return false
	}
	first, err := bitio.NewReader(b.At(0).Data, b.At(0).Bits).ReadUint(bitio.WidthID(v.N))
	return err == nil && first == 1
}

// TestMemoResultsOutliveVisit keeps every Result and multiplicity visit
// receives and reads each again once every walk has returned: its board,
// status, output and multiplicity must be what visit saw. It fails if a
// terminal is handed the board the walk rebuilds for later classes, or if
// the slab memory a multiplicity lives in is recycled, within a walk (the
// gated walk visits deadlocks before it makes its last classes) or across
// walks.
func TestMemoResultsOutliveVisit(t *testing.T) {
	mis6, cycle6 := registeredInstance(t, "mis", "cycle", 6)
	forest5, path5 := registeredInstance(t, "build-forest", "path", 5)
	snapshot := func(res *core.Result, mult *big.Int) string {
		var sb strings.Builder
		for i := 0; i < res.Board.Len(); i++ {
			fmt.Fprintf(&sb, "%d:%x ", res.Board.At(i).Bits, res.Board.At(i).Data)
		}
		fmt.Fprintf(&sb, "%v %v ×%s", res.Status, res.Output, mult)
		return sb.String()
	}
	type kept struct {
		walk string
		res  *core.Result
		mult *big.Int
		seen string
	}
	var all []kept
	for _, c := range []struct {
		name string
		p    core.Protocol
		g    *graph.Graph
	}{
		{"mis/C6", mis6, cycle6},
		{"build-forest/P5", forest5, path5},
		{"first-writer-gate/P6", firstWriterGate{}, graph.Path(6)},
	} {
		terminals := 0
		if _, err := RunAllMemo(c.p, c.g, Options{}, 1<<22, func(res *core.Result, mult *big.Int) error {
			terminals++
			all = append(all, kept{c.name, res, mult, snapshot(res, mult)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if terminals < 2 {
			t.Fatalf("%s: %d terminal classes, want several", c.name, terminals)
		}
	}
	for i, k := range all {
		if now := snapshot(k.res, k.mult); now != k.seen {
			t.Errorf("%s: terminal %d changed after visit:\nsaw %s\nnow %s", k.walk, i, k.seen, now)
		}
	}
}

// composeLog wraps a protocol and counts its Compose calls by board and
// writer.
type composeLog struct {
	core.Protocol
	calls map[string]int
}

func (l *composeLog) Compose(v core.NodeView, b *core.Board) core.Message {
	var key []byte
	for i := 0; i < b.Len(); i++ {
		key = appendMessage(key, b.At(i))
	}
	l.calls[fmt.Sprintf("%x/%d", key, v.ID)]++
	return l.Protocol.Compose(v, b)
}

// TestMemoComposesOncePerBoard checks that in a synchronous model the
// classes on one board share each writer's composed message: on mis/C7
// (SIMSYNC) no (board, writer) pair is composed twice, so there are fewer
// Compose calls than simulated writes.
func TestMemoComposesOncePerBoard(t *testing.T) {
	p, g := registeredInstance(t, "mis", "cycle", 7)
	log := &composeLog{Protocol: p, calls: map[string]int{}}
	stats, err := RunAllMemo(log, g, Options{}, 1<<22, func(*core.Result, *big.Int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for pair, k := range log.calls {
		total += k
		if k > 1 {
			t.Errorf("board/writer %s composed %d times", pair, k)
		}
	}
	t.Logf("%d composes for %d steps over %d classes", total, stats.Steps, stats.Classes)
	if total >= stats.Steps {
		t.Errorf("%d composes for %d steps: classes on one board do not share them", total, stats.Steps)
	}
}
