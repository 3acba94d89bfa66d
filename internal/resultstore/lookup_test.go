package resultstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// axisReport builds a tiny report of a spec sweeping the given protocols
// and graphs; size varies the spec hash within one pair of axes.
func axisReport(protocols, graphs []string, size int) *campaign.Report {
	rep := syntheticReport(size)
	rep.Spec.Name = strings.Join(protocols, "+") + "@" + strings.Join(graphs, "+")
	rep.Spec.Protocols, rep.Spec.Graphs = protocols, graphs
	return rep
}

// filterOracle is the per-entry filter the server ran before the index
// recorded axes: list, then read each run's spec and test membership.
func filterOracle(t *testing.T, st *Store, protocol, graph string) []Entry {
	t.Helper()
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	var out []Entry
	for _, e := range entries {
		spec, err := st.LoadSpec(e)
		if err != nil {
			t.Fatal(err)
		}
		if (protocol == "" || slices.Contains(spec.Protocols, protocol)) &&
			(graph == "" || slices.Contains(spec.Graphs, graph)) {
			out = append(out, e)
		}
	}
	return out
}

// walks counts the freshness walks a store has made: each is either an
// index hit or at least one group rebuild.
func walks(set *telemetry.Set) int64 {
	return set.Registry.Counter("wb_store_index_hits_total", "").Value() +
		set.Registry.Counter("wb_store_index_rebuilds_total", "").Value()
}

// TestCopiedEnvelopeIsForeign pins that a file is a stored run only at
// its own key: an envelope copied into another group, or renamed within
// its own, is foreign debris. Before the fix the copy listed its run
// twice, made the run's own ref ambiguous, inflated Stat and answered a
// keyed lookup at the copy's name.
func TestCopiedEnvelopeIsForeign(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a, err := st.Save(syntheticReport(4), "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Save(syntheticReport(5), "")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, a.SpecHash, a.Label+".json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		filepath.Join(dir, b.SpecHash, "copy.json"),
		filepath.Join(dir, a.SpecHash, "renamed.json"),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, handle := range []string{"live", "cold"} {
		t.Run(handle, func(t *testing.T) {
			st := st
			if handle == "cold" {
				if st, err = Open(dir); err != nil {
					t.Fatal(err)
				}
			}
			entries, err := st.List()
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 2 || entries[0] != a || entries[1] != b {
				t.Errorf("List = %+v, want %s and %s once each", entries, a.Ref(), b.Ref())
			}
			if got, err := st.Resolve(a.Ref()); err != nil || got != a {
				t.Errorf("Resolve(%s) = %+v, %v", a.Ref(), got, err)
			}
			if got, err := st.Resolve(a.Label); err != nil || got != a {
				t.Errorf("Resolve(%s) = %+v, %v", a.Label, got, err)
			}
			stat, err := st.Stat()
			if err != nil {
				t.Fatal(err)
			}
			if stat.Reports != 2 || stat.Specs != 2 {
				t.Errorf("Stat = %+v, want 2 reports in 2 specs", stat)
			}
			for _, key := range [][2]string{{b.SpecHash, "copy"}, {a.SpecHash, "renamed"}} {
				if got, err := st.GetEntry(key[0], key[1]); !errors.Is(err, ErrNotFound) {
					t.Errorf("GetEntry(%s, %s) = %+v, %v; want ErrNotFound", key[0], key[1], got, err)
				}
				if got, err := st.Resolve(key[0] + "/" + key[1]); !errors.Is(err, ErrNotFound) {
					t.Errorf("Resolve(%s/%s) = %+v, %v; want ErrNotFound", key[0], key[1], got, err)
				}
			}
		})
	}
}

// prefixTwins returns two synthetic reports whose spec hashes share their
// first four hex digits, so a 4-digit prefix is ambiguous between them.
func prefixTwins(t *testing.T) (*campaign.Report, *campaign.Report) {
	t.Helper()
	seen := map[string]int{}
	for size := 4; size < 100000; size++ {
		prefix := SpecHash(syntheticReport(size).Spec)[:4]
		if other, ok := seen[prefix]; ok {
			return syntheticReport(other), syntheticReport(size)
		}
		seen[prefix] = size
	}
	t.Fatal("no two synthetic specs share a 4-digit hash prefix")
	return nil, nil
}

// TestResolveKeyedMatchesScan is the differential behind Resolve's keyed
// path: for every ref form it answers exactly what the scan over the
// listing answers, hits and errors alike, and the exact form with a full
// hash — a caller-labeled or run-NNN run, or a miss — is answered without
// a walk.
func TestResolveKeyedMatchesScan(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	st.SetMetrics(set.Store)
	twin1, twin2 := prefixTwins(t)
	save := func(rep *campaign.Report, label string) Entry {
		t.Helper()
		e, err := st.Save(rep, label)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// Both twins hold a run labeled "shared"; run-006 is the newest run
	// of the first twin's group.
	p1 := save(twin1, "")
	save(twin2, "")
	save(twin1, "shared")
	q := save(twin2, "shared")
	r := save(syntheticReport(3), "tagged")
	p6 := save(twin1, "")
	if p1.Label != "run-001" || p6.Label != "run-006" {
		t.Fatalf("auto labels %s, %s", p1.Label, p6.Label)
	}
	// A half-written envelope at an exact key of its own.
	if err := os.WriteFile(filepath.Join(dir, r.SpecHash, "halfway.json"), []byte(`{"spec_hash": "`+r.SpecHash), 0o644); err != nil {
		t.Fatal(err)
	}
	p, qh := p1.SpecHash, q.SpecHash
	if p[:4] != qh[:4] || p == qh {
		t.Fatalf("twins %s and %s do not share a 4-digit prefix", p, qh)
	}
	hits := []string{p + "/run-001", p + "/" + p6.Label, p + "/shared", qh + "/shared", r.Ref()}
	misses := []string{r.SpecHash + "/nope", "beefbeefbeef/run-001", p + "/.hidden", p + "/"}
	refs := slices.Concat(hits, misses, []string{
		p[:6] + "/run-001", p[:4] + "/run-006", p[:4] + "/shared", p[:3] + "/run-001",
		"tagged", "shared", "run-006", "nope",
		p, p[:6], p[:4], p[:3], r.SpecHash[:5],
		r.SpecHash + "/halfway",
	})
	for _, ref := range refs {
		want, wantErr := st.resolveScan(ref)
		before := walks(set)
		got, err := st.Resolve(ref)
		walked := walks(set) - before
		if got != want || errString(err) != errString(wantErr) {
			t.Errorf("Resolve(%q) = %+v, %v; the scan says %+v, %v", ref, got, err, want, wantErr)
		}
		if slices.Contains(hits, ref) && err != nil {
			t.Errorf("Resolve(%q): %v", ref, err)
		}
		if slices.Contains(misses, ref) && !errors.Is(err, ErrNotFound) {
			t.Errorf("Resolve(%q): %v, want ErrNotFound", ref, err)
		}
		if (slices.Contains(hits, ref) || slices.Contains(misses, ref)) && walked != 0 {
			t.Errorf("Resolve(%q) walked the store %d times; the exact form is a keyed read", ref, walked)
		}
	}
	if got, _ := st.Resolve(p[:4] + "/shared"); got != (Entry{}) {
		t.Errorf("ambiguous prefix resolved to %s", got.Ref())
	}
	if got, _ := st.Resolve(p); got != p6 {
		t.Errorf("bare hash resolved to %s, want the newest run %s", got.Ref(), p6.Ref())
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestListFilteredMatchesLoadSpec is the filter oracle: answering
// ?protocol=/?graph= from the index's axes lists exactly what reading each
// run's spec did, over a store that mixes specs and holds runs another
// handle saved and runs imported on Import's own path.
func TestListFilteredMatchesLoadSpec(t *testing.T) {
	dir := t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	forest := axisReport([]string{"build-forest", "bfs"}, []string{"path", "tree"}, 4)
	cycles := axisReport([]string{"bfs"}, []string{"cycle"}, 4)
	for _, rep := range []*campaign.Report{forest, cycles, forest} {
		if _, err := a.Save(rep, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.List(); err != nil {
		t.Fatal(err)
	}
	// A second handle saves into a known group and a new one.
	b, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Save(cycles, "from-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Save(axisReport([]string{"mis"}, []string{"gnp", "path"}, 5), ""); err != nil {
		t.Fatal(err)
	}
	// An archive brings a run of a known spec and of two new ones.
	src, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*campaign.Report{
		forest,
		axisReport([]string{"mis", "coloring"}, []string{"cycle"}, 6),
		axisReport([]string{"eob-bfs"}, []string{"grid"}, 7),
	} {
		if _, err := src.Save(rep, "imported"); err != nil {
			t.Fatal(err)
		}
	}
	var archive bytes.Buffer
	if _, err := src.Export(&archive); err != nil {
		t.Fatal(err)
	}
	if res, err := a.Import(&archive); err != nil || res.Added != 3 {
		t.Fatalf("import: %+v, %v", res, err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	protocols := []string{"", "build-forest", "bfs", "mis", "coloring", "eob-bfs", "nosuch"}
	graphs := []string{"", "path", "tree", "cycle", "gnp", "grid", "nosuch"}
	for name, st := range map[string]*Store{"importer": a, "saver": b, "cold": c} {
		t.Run(name, func(t *testing.T) {
			for _, p := range protocols {
				for _, g := range graphs {
					got, err := st.ListFiltered(p, g)
					if err != nil {
						t.Fatal(err)
					}
					if want := filterOracle(t, st, p, g); !slices.Equal(got, want) {
						t.Errorf("ListFiltered(%q, %q) = %v, want %v", p, g, refsOf(got), refsOf(want))
					}
				}
			}
		})
	}
	if got, _ := a.ListFiltered("eob-bfs", "grid"); len(got) != 1 || got[0].Label != "imported" {
		t.Errorf("imported run missing from its filtered listing: %v", refsOf(got))
	}
}

func refsOf(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.Ref()
	}
	return out
}

// TestSaveSeqAboveUnlistedSaves pins the sequence across handles: a handle
// that has not listed since another handle saved still takes a higher
// seq, because every save reads the seq on the journal's last line; and
// the List order a handle extends save by save equals a cold sort.
func TestSaveSeqAboveUnlistedSaves(t *testing.T) {
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	var last Entry
	for i, step := range []struct {
		st   *Store
		size int
	}{{b, 4}, {a, 5}, {b, 4}, {a, 6}, {b, 7}, {b, 4}} {
		e, err := step.st.Save(syntheticReport(step.size), "")
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq <= last.Seq {
			t.Fatalf("save %d took seq %d, not above %s's seq %d", i, e.Seq, last.Ref(), last.Seq)
		}
		last = e
	}
	cold, _ := Open(dir)
	want, err := cold.List()
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"a": a, "b": b} {
		if got, err := st.List(); err != nil || !slices.Equal(got, want) {
			t.Errorf("handle %s lists %v, %v; a cold handle lists %v", name, refsOf(got), err, refsOf(want))
		}
	}
}

// TestOpenVersion1Store opens a store written before the index recorded
// axes: a version-1 index.json, which is rejected and rebuilt, and
// index.log lines without axes, one of them the only record of a group.
// Filtered listings must be right on a handle's first call.
func TestOpenVersion1Store(t *testing.T) {
	fixture := filepath.Join("testdata", "store-v1")
	snap, err := os.ReadFile(filepath.Join(fixture, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(fixture, indexJournal))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(snap, []byte(`"version":1`)) || bytes.Contains(journal, []byte("protocols")) {
		t.Fatal("fixture is not a version-1 store with axis-less journal lines")
	}
	open := func(t *testing.T) *Store {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(fixture)); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	for _, axis := range [][2]string{
		{"mis", ""}, {"", "cycle"}, {"bfs", ""}, {"build-forest", "tree"}, {"bfs", "cycle"}, {"", ""},
	} {
		st := open(t)
		got, err := st.ListFiltered(axis[0], axis[1])
		if err != nil {
			t.Fatal(err)
		}
		want := filterOracle(t, st, axis[0], axis[1])
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Errorf("first ListFiltered(%q, %q) = %v, want %v", axis[0], axis[1], refsOf(got), refsOf(want))
		}
	}
	st := open(t)
	e, err := st.Save(axisReport([]string{"mis"}, []string{"cycle", "path"}, 4), "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 5 {
		t.Errorf("first save into the upgraded store took seq %d, want 5", e.Seq)
	}
}
