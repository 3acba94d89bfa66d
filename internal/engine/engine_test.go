package engine

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
)

// idEcho is a minimal SIMASYNC protocol: every node writes its identifier
// and degree; the output is the sorted (id, degree) list.
type idEcho struct{}

func (idEcho) Name() string             { return "id-echo" }
func (idEcho) Model() core.Model        { return core.SimAsync }
func (idEcho) MaxMessageBits(n int) int { return 2 * bitio.WidthID(n) }

func (idEcho) Activate(v core.NodeView, b *core.Board) bool { return true }

func (idEcho) Compose(v core.NodeView, b *core.Board) core.Message {
	var w bitio.Writer
	w.WriteUint(uint64(v.ID), bitio.WidthID(v.N))
	w.WriteUint(uint64(v.Degree()), bitio.WidthID(v.N))
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

func (idEcho) Output(n int, b *core.Board) (any, error) {
	type pair struct{ id, deg int }
	var out []pair
	for i := 0; i < b.Len(); i++ {
		m := b.At(i)
		r := bitio.NewReader(m.Data, m.Bits)
		id, err := r.ReadUint(bitio.WidthID(n))
		if err != nil {
			return nil, err
		}
		deg, err := r.ReadUint(bitio.WidthID(n))
		if err != nil {
			return nil, err
		}
		out = append(out, pair{int(id), int(deg)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	degs := make([]int, len(out))
	for i, p := range out {
		if p.id != i+1 {
			return nil, fmt.Errorf("missing id %d", i+1)
		}
		degs[i] = p.deg
	}
	return degs, nil
}

// chainProto is a free ASYNC protocol in which node v activates only after
// node v-1 has written (tracking board length as a proxy). It serializes
// writes in ID order and exercises free activation and deadlock detection.
type chainProto struct {
	stallAt int // if >0, node stallAt never activates (forces deadlock)
}

func (chainProto) Name() string             { return "chain" }
func (chainProto) Model() core.Model        { return core.Async }
func (chainProto) MaxMessageBits(n int) int { return bitio.WidthID(n) }

func (c chainProto) Activate(v core.NodeView, b *core.Board) bool {
	if v.ID == c.stallAt {
		return false
	}
	return b.Len() == v.ID-1
}

func (chainProto) Compose(v core.NodeView, b *core.Board) core.Message {
	var w bitio.Writer
	w.WriteUint(uint64(v.ID), bitio.WidthID(v.N))
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

func (chainProto) Output(n int, b *core.Board) (any, error) { return b.Len(), nil }

// simViolator claims SIMSYNC but refuses to activate node 2 on the empty
// board — the engine must reject it.
type simViolator struct{ idEcho }

func (simViolator) Name() string      { return "sim-violator" }
func (simViolator) Model() core.Model { return core.SimSync }
func (simViolator) Activate(v core.NodeView, b *core.Board) bool {
	return v.ID != 2 || !b.Empty()
}

// hog exceeds its declared budget.
type hog struct{ idEcho }

func (hog) Name() string             { return "hog" }
func (hog) MaxMessageBits(n int) int { return 1 }

// lastWriterSees is SIMSYNC: each node writes 1 bit — 1 iff the board
// already has a message. Detects compose-at-write vs freeze-at-activation.
type lastWriterSees struct{}

func (lastWriterSees) Name() string                             { return "sees-board" }
func (lastWriterSees) Model() core.Model                        { return core.SimSync }
func (lastWriterSees) MaxMessageBits(n int) int                 { return 1 }
func (lastWriterSees) Activate(core.NodeView, *core.Board) bool { return true }
func (lastWriterSees) Compose(v core.NodeView, b *core.Board) core.Message {
	var w bitio.Writer
	w.WriteBool(!b.Empty())
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}
func (lastWriterSees) Output(n int, b *core.Board) (any, error) {
	ones := 0
	for i := 0; i < b.Len(); i++ {
		m := b.At(i)
		r := bitio.NewReader(m.Data, m.Bits)
		set, _ := r.ReadBool()
		if set {
			ones++
		}
	}
	return ones, nil
}

func TestRunSimAsyncSuccess(t *testing.T) {
	g := graph.Path(5)
	for _, adv := range adversary.Standard(2, 1) {
		res := Run(idEcho{}, g, adv, Options{})
		if res.Status != core.Success {
			t.Fatalf("adv %s: status %v err %v", adv.Name(), res.Status, res.Err)
		}
		degs := res.Output.([]int)
		want := []int{1, 2, 2, 2, 1}
		if !reflect.DeepEqual(degs, want) {
			t.Errorf("adv %s: output %v, want %v", adv.Name(), degs, want)
		}
		if len(res.Writes) != 5 {
			t.Errorf("adv %s: %d writes", adv.Name(), len(res.Writes))
		}
		if res.MaxBits > (idEcho{}).MaxMessageBits(5) {
			t.Errorf("adv %s: max bits %d over budget", adv.Name(), res.MaxBits)
		}
	}
}

func TestRunChainOrder(t *testing.T) {
	g := graph.Path(4)
	res := Run(chainProto{}, g, adversary.MaxID{}, Options{})
	if res.Status != core.Success {
		t.Fatalf("status %v err %v", res.Status, res.Err)
	}
	// Activation gating forces writes in ID order even for MaxID adversary.
	if got := res.WriterOrder(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("order %v", got)
	}
}

func TestRunDeadlockDetected(t *testing.T) {
	g := graph.Path(4)
	res := Run(chainProto{stallAt: 3}, g, adversary.MinID{}, Options{})
	if res.Status != core.Deadlock {
		t.Fatalf("status %v, want deadlock", res.Status)
	}
	if len(res.Writes) != 2 {
		t.Errorf("wrote %d messages before deadlock, want 2", len(res.Writes))
	}
}

func TestRunSimultaneousViolation(t *testing.T) {
	res := Run(simViolator{}, graph.Path(3), adversary.MinID{}, Options{})
	if res.Status != core.Failed || res.Err == nil {
		t.Fatalf("status %v err %v, want Failed", res.Status, res.Err)
	}
}

func TestRunBudgetEnforced(t *testing.T) {
	res := Run(hog{}, graph.Path(3), adversary.MinID{}, Options{})
	if res.Status != core.Failed {
		t.Fatalf("status %v, want Failed", res.Status)
	}
}

func TestSyncVsAsyncComposeSemantics(t *testing.T) {
	g := graph.Path(3)
	// Under its native SIMSYNC model, writers 2 and 3 see a non-empty board.
	res := Run(lastWriterSees{}, g, adversary.MinID{}, Options{})
	if res.Status != core.Success || res.Output.(int) != 2 {
		t.Fatalf("SIMSYNC: output %v (err %v), want 2", res.Output, res.Err)
	}
	// Forced under SIMASYNC freezing all messages compose on the empty board.
	res = Run(lastWriterSees{}, g, adversary.MinID{}, Options{Model: ModelPtr(core.SimAsync)})
	if res.Status != core.Success || res.Output.(int) != 0 {
		t.Fatalf("SIMASYNC override: output %v (err %v), want 0", res.Output, res.Err)
	}
}

func TestRunAllEnumeratesSchedules(t *testing.T) {
	g := graph.Path(3)
	orders := map[string]bool{}
	stats, err := RunAll(idEcho{}, g, Options{}, 100000, func(res *core.Result, order []int) error {
		if res.Status != core.Success {
			return fmt.Errorf("status %v", res.Status)
		}
		orders[fmt.Sprint(order)] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Schedules != 6 { // 3! schedules for a SIMASYNC protocol
		t.Errorf("schedules = %d, want 6", stats.Schedules)
	}
	if len(orders) != 6 {
		t.Errorf("distinct orders = %d, want 6", len(orders))
	}
}

func TestRunAllChainHasOneSchedule(t *testing.T) {
	stats, err := RunAll(chainProto{}, graph.Path(4), Options{}, 1000, func(res *core.Result, order []int) error {
		if res.Status != core.Success {
			return fmt.Errorf("status %v", res.Status)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Schedules != 1 {
		t.Errorf("schedules = %d, want 1 (activation forces order)", stats.Schedules)
	}
}

func TestRunAllPropagatesCheckError(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := RunAll(idEcho{}, graph.Path(3), Options{}, 1000, func(*core.Result, []int) error {
		return sentinel
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want sentinel", err)
	}
}

func TestRunAllBudget(t *testing.T) {
	_, err := RunAll(idEcho{}, graph.Path(6), Options{}, 10, func(*core.Result, []int) error { return nil })
	if !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

func TestModelLattice(t *testing.T) {
	if !core.Sync.AtLeast(core.SimAsync) || !core.Sync.AtLeast(core.Async) ||
		!core.Sync.AtLeast(core.SimSync) || !core.Sync.AtLeast(core.Sync) {
		t.Error("SYNC must dominate everything")
	}
	if core.SimSync.AtLeast(core.Async) || core.Async.AtLeast(core.SimSync) {
		t.Error("SIMSYNC and ASYNC are incomparable as protocol classes here")
	}
	if !core.Async.AtLeast(core.SimAsync) || !core.SimSync.AtLeast(core.SimAsync) {
		t.Error("everything dominates SIMASYNC")
	}
	if core.SimAsync.AtLeast(core.Sync) {
		t.Error("SIMASYNC must not dominate SYNC")
	}
}

func TestModelProperties(t *testing.T) {
	cases := []struct {
		m          core.Model
		sim, async bool
		str        string
	}{
		{core.SimAsync, true, true, "SIMASYNC"},
		{core.SimSync, true, false, "SIMSYNC"},
		{core.Async, false, true, "ASYNC"},
		{core.Sync, false, false, "SYNC"},
	}
	for _, c := range cases {
		if c.m.Simultaneous() != c.sim || c.m.Asynchronous() != c.async || c.m.String() != c.str {
			t.Errorf("%v: sim=%v async=%v str=%q", c.m, c.m.Simultaneous(), c.m.Asynchronous(), c.m.String())
		}
	}
}

func TestBoardHelpers(t *testing.T) {
	b := core.NewBoard()
	if !b.Empty() || b.TotalBits() != 0 {
		t.Error("fresh board not empty")
	}
	m1 := core.Message{Data: []byte{0xA0}, Bits: 3}
	m2 := core.Message{Data: []byte{0xFF}, Bits: 8}
	b.Append(m1)
	b.Append(m2)
	if b.Len() != 2 || b.TotalBits() != 11 || b.Last().Bits != 8 {
		t.Error("board accounting wrong")
	}
	if b.At(0).String() != "101" {
		t.Errorf("message string = %q", b.At(0).String())
	}
	c := b.Clone()
	c.Append(m1)
	if b.Len() != 2 {
		t.Error("clone shares spine")
	}
	tr := b.Truncate(1)
	if tr.Len() != 1 || tr.At(0).Key() != m1.Key() {
		t.Error("truncate wrong")
	}
	// ContentKey is order-insensitive; Key is order-sensitive.
	b2 := core.NewBoard()
	b2.Append(m2)
	b2.Append(m1)
	if b.ContentKey() != b2.ContentKey() {
		t.Error("ContentKey should erase order")
	}
	if b.Key() == b2.Key() {
		t.Error("Key should preserve order")
	}
}

func TestNodeViewHasNeighbor(t *testing.T) {
	v := core.NodeView{ID: 2, Neighbors: []int{1, 3, 7}, N: 8}
	for _, id := range []int{1, 3, 7} {
		if !v.HasNeighbor(id) {
			t.Errorf("HasNeighbor(%d) = false", id)
		}
	}
	for _, id := range []int{0, 2, 4, 8} {
		if v.HasNeighbor(id) {
			t.Errorf("HasNeighbor(%d) = true", id)
		}
	}
	if v.Degree() != 3 {
		t.Error("degree wrong")
	}
}
