package core

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestModelAxes(t *testing.T) {
	cases := []struct {
		m          Model
		sim, async bool
	}{
		{SimAsync, true, true},
		{SimSync, true, false},
		{Async, false, true},
		{Sync, false, false},
	}
	for _, c := range cases {
		if c.m.Simultaneous() != c.sim {
			t.Errorf("%v.Simultaneous() = %v", c.m, c.m.Simultaneous())
		}
		if c.m.Asynchronous() != c.async {
			t.Errorf("%v.Asynchronous() = %v", c.m, c.m.Asynchronous())
		}
	}
}

func TestModelLatticeIsPartialOrder(t *testing.T) {
	// Reflexive.
	for _, m := range AllModels {
		if !m.AtLeast(m) {
			t.Errorf("%v not ≥ itself", m)
		}
	}
	// Antisymmetric.
	for _, a := range AllModels {
		for _, b := range AllModels {
			if a != b && a.AtLeast(b) && b.AtLeast(a) {
				t.Errorf("%v and %v mutually dominate", a, b)
			}
		}
	}
	// Transitive.
	for _, a := range AllModels {
		for _, b := range AllModels {
			for _, c := range AllModels {
				if a.AtLeast(b) && b.AtLeast(c) && !a.AtLeast(c) {
					t.Errorf("transitivity fails: %v ≥ %v ≥ %v", a, b, c)
				}
			}
		}
	}
	// Bottom and top.
	for _, m := range AllModels {
		if !m.AtLeast(SimAsync) {
			t.Errorf("%v should dominate SIMASYNC", m)
		}
		if !Sync.AtLeast(m) {
			t.Errorf("SYNC should dominate %v", m)
		}
	}
	if s := Model(99).String(); s != "Model(99)" {
		t.Errorf("unknown model renders %q", s)
	}
	if Model(99).AtLeast(Model(98)) {
		t.Error("unknown models must not dominate")
	}
}

func TestMessageStringAndKey(t *testing.T) {
	m := Message{Data: []byte{0b10110000}, Bits: 4}
	if m.String() != "1011" {
		t.Errorf("String() = %q", m.String())
	}
	m2 := Message{Data: []byte{0b10110000}, Bits: 5}
	if m.Key() == m2.Key() {
		t.Error("different bit counts must have different keys")
	}
}

func TestBoardOrderAndContentKeys(t *testing.T) {
	a := Message{Data: []byte{0xF0}, Bits: 4}
	b := Message{Data: []byte{0x00}, Bits: 4}
	b1 := NewBoard()
	b1.Append(a)
	b1.Append(b)
	b2 := NewBoard()
	b2.Append(b)
	b2.Append(a)
	if b1.Key() == b2.Key() {
		t.Error("Key must be order sensitive")
	}
	if b1.ContentKey() != b2.ContentKey() {
		t.Error("ContentKey must be order insensitive")
	}
	if b1.TotalBits() != 8 || b1.Len() != 2 || b1.Empty() {
		t.Error("board accounting wrong")
	}
	if b1.Last().Key() != b.Key() {
		t.Error("Last wrong")
	}
	tr := b1.Truncate(1)
	if tr.Len() != 1 || tr.At(0).Key() != a.Key() {
		t.Error("Truncate wrong")
	}
	// Truncate shares the immutable prefix; appending to it must not
	// corrupt the original.
	tr.Append(b)
	if b1.At(1).Key() != b.Key() || b1.Len() != 2 {
		t.Error("Truncate append corrupted the source board")
	}
}

// TestFoldSlotLifecycle pins the derived-state slot's lifecycle: a read
// folds only the messages appended since the previous read under its key;
// Append keeps the slot, Clone and Truncate start without it, another key
// takes it over, and Reset clears it.
func TestFoldSlotLifecycle(t *testing.T) {
	type tally struct{ msgs int }
	starts, steps := 0, 0
	fresh := func(string) tally { starts++; return tally{} }
	step := func(st *tally, i int, _ Message) error {
		if i != st.msgs {
			t.Errorf("folded message %d after %d messages", i, st.msgs)
		}
		st.msgs++
		steps++
		return nil
	}
	read := func(label string, b *Board, key string, wantMsgs, wantStarts, wantSteps int) {
		t.Helper()
		st, err := Fold(b, key, fresh, step)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if st.msgs != wantMsgs || starts != wantStarts || steps != wantSteps {
			t.Errorf("%s: state covers %d messages after %d starts and %d steps, want %d, %d, %d",
				label, st.msgs, starts, steps, wantMsgs, wantStarts, wantSteps)
		}
	}
	m := Message{Data: []byte{0x80}, Bits: 1}
	b := NewBoard()
	read("empty board", b, "a", 0, 1, 0)
	b.Append(m)
	b.Append(m)
	read("first read", b, "a", 2, 1, 2)
	read("second read", b, "a", 2, 1, 2)
	b.Append(m)
	read("after Append", b, "a", 3, 1, 3)
	read("Clone", b.Clone(), "a", 3, 2, 6)
	read("source after Clone", b, "a", 3, 2, 6)
	read("Truncate", b.Truncate(2), "a", 2, 3, 8)
	read("source after Truncate", b, "a", 3, 3, 8)
	read("another key", b, "b", 3, 4, 11)
	read("first key again", b, "a", 3, 5, 14)
	b.Reset()
	read("after Reset", b, "a", 0, 6, 14)
	b.Append(m)
	read("after Reset and Append", b, "a", 1, 6, 15)
}

// TestFoldErrorIsSticky pins that a fold stops at a message its step
// rejects: every later read returns that error, however many messages are
// appended, until Reset clears the slot.
func TestFoldErrorIsSticky(t *testing.T) {
	errEmpty := errors.New("empty message")
	steps := 0
	fresh := func(int) int { return 0 }
	step := func(st *int, i int, m Message) error {
		steps++
		if m.Bits == 0 {
			return fmt.Errorf("message %d: %w", i, errEmpty)
		}
		*st++
		return nil
	}
	good := Message{Data: []byte{0x80}, Bits: 1}
	b := NewBoard()
	b.Append(good)
	b.Append(Message{})
	for round := 0; round < 3; round++ {
		st, err := Fold(b, 8, fresh, step)
		if !errors.Is(err, errEmpty) || err.Error() != "message 1: empty message" || st != nil {
			t.Fatalf("round %d: Fold = %v, %v; want the message 1 error", round, st, err)
		}
		if steps != 2 {
			t.Fatalf("round %d: %d steps, want the 2 that reached the bad message", round, steps)
		}
		b.Append(good)
	}
	b.Reset()
	b.Append(good)
	if st, err := Fold(b, 8, fresh, step); err != nil || *st != 1 {
		t.Fatalf("after Reset: Fold = %v, %v; want 1 message", st, err)
	}
}

func TestLastPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Last on empty board should panic")
		}
	}()
	NewBoard().Last()
}

func TestNodeViewHasNeighborQuick(t *testing.T) {
	f := func(raw []uint8, probe uint8) bool {
		// Build a sorted unique neighbor list from raw.
		seen := map[int]bool{}
		var nbrs []int
		for _, r := range raw {
			id := int(r%64) + 1
			if !seen[id] {
				seen[id] = true
				nbrs = append(nbrs, id)
			}
		}
		sortInts(nbrs)
		v := NodeView{ID: 65, Neighbors: nbrs, N: 66}
		p := int(probe%66) + 1
		return v.HasNeighbor(p) == seen[p]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestStatusString(t *testing.T) {
	if Success.String() != "success" || Deadlock.String() != "deadlock" || Failed.String() != "failed" {
		t.Error("status strings wrong")
	}
	if Status(9).String() != "Status(9)" {
		t.Error("unknown status rendering wrong")
	}
}

func TestResultWriterOrder(t *testing.T) {
	r := Result{Writes: []WriteEvent{{Round: 1, Writer: 3}, {Round: 2, Writer: 1}}}
	got := r.WriterOrder()
	if len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Errorf("WriterOrder = %v", got)
	}
}
