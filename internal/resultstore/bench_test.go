package resultstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fillStore lays down n synthetic envelopes across 16 spec groups by
// writing files directly — the benchmarks measure steady-state store
// operations, not the cost of building the fixture.
func fillStore(b *testing.B, n int) *Store {
	b.Helper()
	st, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	const groups = 16
	seq := 0
	for g := 0; g < groups; g++ {
		rep := syntheticReport(100 + g)
		hash := SpecHash(rep.Spec)
		dir := filepath.Join(st.Dir(), hash)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for k := g * n / groups; k < (g+1)*n/groups; k++ {
			seq++
			env := envelope{
				Entry: Entry{
					SpecHash: hash, Label: fmt.Sprintf("b-%05d", seq), Seq: seq,
					Name: rep.Spec.Name, Jobs: rep.Jobs, Cells: len(rep.Cells), Mode: "sampled",
				},
				Report: rep,
			}
			if _, _, err := st.write(dir, env); err != nil {
				b.Fatal(err)
			}
		}
	}
	return st
}

// scanList is the pre-index List: parse every envelope in the store on
// every call. Kept here as the benchmark baseline the index is judged
// against.
func scanList(st *Store) (int, error) {
	groups, err := os.ReadDir(st.Dir())
	if err != nil {
		return 0, err
	}
	count := 0
	for _, g := range groups {
		if !g.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(st.Dir(), g.Name()))
		if err != nil {
			return 0, err
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
				continue
			}
			e, _, err := st.readEntry(filepath.Join(st.Dir(), g.Name(), f.Name()))
			if err != nil {
				if errors.Is(err, os.ErrNotExist) || isParseError(err) {
					continue
				}
				return 0, err
			}
			if e.SpecHash != "" && e.Label != "" {
				count++
			}
		}
	}
	return count, nil
}

// settle lets the fixture age past the index's racy window, so the
// benchmark measures the steady state (mtime checks) rather than the
// post-write verification window.
func settle(b *testing.B, st *Store) {
	b.Helper()
	if _, err := st.List(); err != nil {
		b.Fatal(err)
	}
	time.Sleep(racyWindow + 100*time.Millisecond)
}

// BenchmarkStoreList is the acceptance benchmark: indexed listings must
// stay flat as the entry count grows 10×, while the scan baseline grows
// linearly.
func BenchmarkStoreList(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("indexed-%d", n), func(b *testing.B) {
			st := fillStore(b, n)
			settle(b, st)
			for b.Loop() {
				entries, err := st.List()
				if err != nil {
					b.Fatal(err)
				}
				if len(entries) != n {
					b.Fatalf("listed %d entries, want %d", len(entries), n)
				}
			}
		})
		b.Run(fmt.Sprintf("scan-%d", n), func(b *testing.B) {
			st := fillStore(b, n)
			for b.Loop() {
				count, err := scanList(st)
				if err != nil {
					b.Fatal(err)
				}
				if count != n {
					b.Fatalf("scanned %d entries, want %d", count, n)
				}
			}
		})
	}
}

// BenchmarkStoreSave measures one auto-labeled save into a 10k-entry
// store — sequence and label now come from the index, not a rescan.
func BenchmarkStoreSave(b *testing.B) {
	st := fillStore(b, 10000)
	settle(b, st)
	rep := syntheticReport(4)
	for b.Loop() {
		if _, err := st.Save(rep, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreLoad measures resolving and loading one report (columnar
// decode included) out of a 10k-entry store.
func BenchmarkStoreLoad(b *testing.B) {
	st := fillStore(b, 10000)
	settle(b, st)
	entries, err := st.List()
	if err != nil {
		b.Fatal(err)
	}
	ref := entries[len(entries)/2].Ref()
	for b.Loop() {
		if _, _, err := st.Load(ref); err != nil {
			b.Fatal(err)
		}
	}
}
