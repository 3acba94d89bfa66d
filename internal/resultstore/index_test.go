package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/campaign"
)

// syntheticReport builds a tiny distinct-spec report without running a
// campaign — index tests care about store mechanics, not simulation.
func syntheticReport(size int) *campaign.Report {
	return &campaign.Report{
		Spec: campaign.Spec{
			Name:        fmt.Sprintf("synthetic-%d", size),
			Protocols:   []string{"build-forest"},
			Graphs:      []string{"path"},
			Adversaries: []string{"min"},
			Sizes:       []int{size},
		},
		Jobs: 1,
		Cells: []campaign.Cell{{
			Protocol: "build-forest", Graph: "path", N: size, Adversary: "min",
			Model: "blackboard", Runs: 1, Success: 1,
			Rounds:    campaign.Dist{Min: size, Max: size, Mean: float64(size)},
			BoardBits: campaign.Dist{Min: 8, Max: 8, Mean: 8},
		}},
		Totals: campaign.Totals{Runs: 1, Success: 1},
	}
}

// TestIndexPersistsAcrossHandles pins the warm-start path: a second Store
// handle opened on the same directory answers from the persisted index
// and sees exactly what the first handle stored.
func TestIndexPersistsAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.Save(syntheticReport(4+i), ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.List(); err != nil {
		t.Fatal(err)
	}
	haveSnapshot := false
	for _, f := range []string{indexFile, indexJournal} {
		if _, err := os.Stat(filepath.Join(dir, f)); err == nil {
			haveSnapshot = true
		}
	}
	if !haveSnapshot {
		t.Fatal("no persisted index after saves and a listing")
	}
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("second handle lists %d entries, want 3", len(entries))
	}
	for i, e := range entries {
		if e.Seq != i+1 {
			t.Errorf("entry %d: seq %d", i, e.Seq)
		}
	}
	// The second handle's next save must continue the sequence, proving it
	// trusts (and verified) the persisted index rather than starting over.
	e, err := b.Save(syntheticReport(99), "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 4 || e.Label != "run-004" {
		t.Fatalf("post-reopen save: %+v", e)
	}
}

// TestIndexSeesOtherHandlesSaves pins cross-handle freshness within one
// process lifetime: a handle that already listed must pick up writes made
// through a different handle on the same directory (the CLI-inside-server
// shape the equivalence tests rely on).
func TestIndexSeesOtherHandlesSaves(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	if _, err := a.Save(syntheticReport(4), ""); err != nil {
		t.Fatal(err)
	}
	if entries, err := b.List(); err != nil || len(entries) != 1 {
		t.Fatalf("handle b initial listing: %v, %v", entries, err)
	}
	if _, err := a.Save(syntheticReport(5), ""); err != nil {
		t.Fatal(err)
	}
	entries, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("handle b lists %d entries after foreign save, want 2", len(entries))
	}
	// And b's own save must not reuse the sequence a already took.
	e, err := b.Save(syntheticReport(6), "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 3 {
		t.Fatalf("handle b save got seq %d, want 3", e.Seq)
	}
}

// TestIndexRebuildsOverMutatedStore drags the index through everything
// the issue lists happening underneath it — vanished files, orphaned
// .tmp debris, foreign JSON, corrupt index snapshot and journal — and
// requires the listing to converge to scan truth every time.
func TestIndexRebuildsOverMutatedStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var saved []Entry
	for i := 0; i < 4; i++ {
		e, err := st.Save(syntheticReport(4+i), "")
		if err != nil {
			t.Fatal(err)
		}
		saved = append(saved, e)
	}
	group := filepath.Join(dir, saved[0].SpecHash)

	// Vanish one envelope behind the index's back.
	if err := os.Remove(filepath.Join(dir, saved[1].SpecHash, saved[1].Label+".json")); err != nil {
		t.Fatal(err)
	}
	// Orphan a temp file and plant a foreign JSON document.
	if err := os.WriteFile(filepath.Join(group, "orphan.12345.tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(group, "foreign.json"), []byte(`{"hello":"world"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupt both index files.
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexJournal), []byte("garbage\nlines\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, s *Store) {
		t.Helper()
		entries, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("listed %d entries, want 3: %+v", len(entries), entries)
		}
		for _, e := range entries {
			if e.Ref() == saved[1].Ref() {
				t.Errorf("vanished entry %s still listed", e.Ref())
			}
		}
		stats, err := s.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Reports != 3 {
			t.Errorf("Stat.Reports = %d, want 3", stats.Reports)
		}
	}
	// The live handle must converge (stale in-memory index)...
	t.Run("live handle", func(t *testing.T) { check(t, st) })
	// ...and so must a cold handle loading the corrupt index files.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("cold handle", func(t *testing.T) { check(t, st2) })

	// After the rebuild the snapshot on disk is valid again: a third
	// handle starting from it sees the same store.
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("rebuilt snapshot", func(t *testing.T) { check(t, st3) })
}

// TestIndexSurvivesVanishedGroup removes a whole spec group out from
// under a warm index.
func TestIndexSurvivesVanishedGroup(t *testing.T) {
	dir := t.TempDir()
	st, _ := Open(dir)
	e1, err := st.Save(syntheticReport(4), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(syntheticReport(5), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := st.List(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, e1.SpecHash)); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].SpecHash == e1.SpecHash {
		t.Fatalf("vanished group still listed: %+v", entries)
	}
}

// TestConcurrentSaves hammers one handle from many goroutines; every save
// must land under a unique label and sequence, while filtered listings
// and keyed resolves run alongside (run with -race in CI).
func TestConcurrentSaves(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half share a spec group, half get their own.
			var e Entry
			if e, errs[i] = st.Save(syntheticReport(4+i%8), ""); errs[i] != nil {
				return
			}
			if _, errs[i] = st.Resolve(e.Ref()); errs[i] != nil {
				return
			}
			_, errs[i] = st.ListFiltered("build-forest", "path")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != n {
		t.Fatalf("listed %d entries, want %d", len(entries), n)
	}
	seqs := map[int]bool{}
	refs := map[string]bool{}
	for _, e := range entries {
		if seqs[e.Seq] {
			t.Errorf("duplicate seq %d", e.Seq)
		}
		seqs[e.Seq] = true
		if refs[e.Ref()] {
			t.Errorf("duplicate ref %s", e.Ref())
		}
		refs[e.Ref()] = true
	}
}

// checkJournalBounded fails t if the journal outgrew what a save leaves
// behind: the larger of the snapshot and journalFloor.
func checkJournalBounded(t *testing.T, dir string) {
	t.Helper()
	var journal, snapshot int64
	if st, err := os.Stat(filepath.Join(dir, indexJournal)); err == nil {
		journal = st.Size()
	}
	if st, err := os.Stat(filepath.Join(dir, indexFile)); err == nil {
		snapshot = st.Size()
	}
	if journal > max(snapshot, journalFloor) {
		t.Errorf("journal is %d bytes beside a %d-byte snapshot (floor %d)", journal, snapshot, journalFloor)
	}
}

// checkColdListing opens a fresh handle on dir and requires it to list n
// runs under n distinct sequence numbers.
func checkColdListing(t *testing.T, dir string, n int) {
	t.Helper()
	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := cold.List()
	if err != nil {
		t.Fatal(err)
	}
	seqs := map[int]bool{}
	for _, e := range entries {
		if seqs[e.Seq] {
			t.Errorf("seq %d taken twice", e.Seq)
		}
		seqs[e.Seq] = true
	}
	if len(entries) != n {
		t.Errorf("a cold handle lists %d runs, want %d", len(entries), n)
	}
}

// TestJournalCompacts saves 2,000 runs into 20 spec groups through one
// handle that lists after every tenth save. Its walks never find a group
// changed under it, so only the save path can compact the journal; a cold
// handle still lists every run.
func TestJournalCompacts(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 1; i <= n; i++ {
		if _, err := st.Save(syntheticReport(4+i%20), ""); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if _, err := st.List(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkJournalBounded(t, dir)
	checkColdListing(t, dir, n)
}

// TestJournalCompactsAcrossHandles alternates saves between two handles
// past the compaction bound: each compaction folds in the other handle's
// saves, so a cold handle lists every run under a unique seq. A journal
// line lost to a compaction (the journal removed right after the save
// appended it) leaves its run listed through its envelope, and the next
// save still takes a higher seq.
func TestJournalCompactsAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	const n = 800
	for i := 0; i < n; i++ {
		st := a
		if i%2 == 1 {
			st = b
		}
		if _, err := st.Save(syntheticReport(4+i%50), ""); err != nil {
			t.Fatal(err)
		}
	}
	checkJournalBounded(t, dir)
	lost, err := b.Save(syntheticReport(9), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexJournal)); err != nil {
		t.Fatal(err)
	}
	next, err := a.Save(syntheticReport(4), "")
	if err != nil {
		t.Fatal(err)
	}
	if next.Seq <= lost.Seq {
		t.Errorf("save after a lost journal line took seq %d, not above %d", next.Seq, lost.Seq)
	}
	checkColdListing(t, dir, n+2)
}
