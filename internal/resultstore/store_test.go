package resultstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/campaign"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// runSmoke executes a small deterministic campaign for store round-trips.
func runSmoke(t *testing.T) *campaign.Report {
	t.Helper()
	rep, err := campaign.Run(campaign.Spec{
		Name:        "store-test",
		Protocols:   []string{"build-forest"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min"},
		Sizes:       []int{4, 5},
	}, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	e1, err := st.Save(rep, "")
	if err != nil {
		t.Fatal(err)
	}
	if e1.Label != "run-001" || e1.Seq != 1 {
		t.Fatalf("first save: %+v", e1)
	}
	if e1.SpecHash != SpecHash(rep.Spec) {
		t.Fatalf("entry hash %s != SpecHash %s", e1.SpecHash, SpecHash(rep.Spec))
	}
	loaded, entry, err := st.Load(e1.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if entry != e1 {
		t.Fatalf("loaded entry %+v != saved %+v", entry, e1)
	}
	// The persisted report must render byte-identically to the original:
	// the store is a time machine, not a lossy cache.
	var orig, back bytes.Buffer
	if err := rep.WriteJSON(&orig); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteJSON(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), back.Bytes()) {
		t.Error("report did not survive the store round trip byte-identically")
	}
}

func TestSpecHashNormalizes(t *testing.T) {
	a := campaign.Spec{Protocols: []string{"bfs"}, Graphs: []string{"path"}, Adversaries: []string{"min"}, Sizes: []int{4}}
	b := a
	b.Seeds = 1                   // the normalized default
	b.Models = []string{"native"} // likewise
	b.Mode = "sampled"            // canonical spelling of ""
	if SpecHash(a) != SpecHash(b) {
		t.Error("specs that normalize identically hash differently")
	}
	renamed := a
	renamed.Name = "new-name" // cosmetic: same job matrix, same lineage
	if SpecHash(a) != SpecHash(renamed) {
		t.Error("renaming a campaign changed its spec hash")
	}
	c := a
	c.Sizes = []int{5}
	if SpecHash(a) == SpecHash(c) {
		t.Error("different sweeps hash identically")
	}
}

// TestSpecHashCoversScript pins the content-addressing contract for
// scripted scenarios: the script source is part of the normalized spec, so
// changing a single token — or moving the same expression between the
// spec-level field and the adversary spec — changes the hash.
func TestSpecHashCoversScript(t *testing.T) {
	base := campaign.Spec{
		Protocols: []string{"bfs"}, Graphs: []string{"path"},
		Adversaries: []string{"script"}, Sizes: []int{4},
		Script: "min(candidates)",
	}
	oneToken := base
	oneToken.Script = "max(candidates)"
	if SpecHash(base) == SpecHash(oneToken) {
		t.Error("one-token script change did not change the spec hash")
	}
	inline := base
	inline.Adversaries = []string{"script:min(candidates)"}
	inline.Script = ""
	if SpecHash(base) == SpecHash(inline) {
		t.Error("spec-level and inline script forms hash identically")
	}
}

func TestSaveRefusesDuplicateLabelAndBadLabels(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	if _, err := st.Save(rep, "v1.0-2-gabc123"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(rep, "v1.0-2-gabc123"); err == nil || !strings.Contains(err.Error(), "immutable") {
		t.Errorf("duplicate label: got %v", err)
	}
	// "" is not here: an empty label is valid input and auto-assigns run-NNN.
	// run-NNN-shaped caller labels are rejected: they would masquerade as
	// auto-assigned and lose GC's pin protection.
	for _, bad := range []string{"a/b", "..", ".hidden", "sp ace", "run-100", "run-0001"} {
		if _, err := st.Save(rep, bad); err == nil || !errors.Is(err, ErrBadLabel) {
			t.Errorf("label %q: got %v, want ErrBadLabel", bad, err)
		}
	}
}

func TestListOrderAndLatestPair(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	if _, _, err := st.LatestPair(); err == nil {
		t.Error("LatestPair on empty store succeeded")
	}
	if _, err := st.Save(rep, "first"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LatestPair(); err == nil {
		t.Error("LatestPair with a single run succeeded")
	}
	// A run of a different spec lands in another group and must not pair
	// with the newest run of the first spec.
	other := runSmoke(t)
	other.Spec.Sizes = []int{4}
	if _, err := st.Save(other, "odd-one-out"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(rep, "second"); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || entries[0].Label != "first" || entries[2].Label != "second" {
		t.Fatalf("list order: %+v", entries)
	}
	old, latest, err := st.LatestPair()
	if err != nil {
		t.Fatal(err)
	}
	if old.Label != "first" || latest.Label != "second" {
		t.Errorf("LatestPair = %s → %s, want first → second", old.Label, latest.Label)
	}
}

func TestLoadRefForms(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	e, err := st.Save(rep, "tagged")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{e.Ref(), "tagged", e.SpecHash, e.SpecHash[:6], e.SpecHash[:6] + "/tagged"} {
		if _, got, err := st.Load(ref); err != nil || got.Label != "tagged" {
			t.Errorf("Load(%q) = %+v, %v", ref, got, err)
		}
	}
	if _, _, err := st.Load("nope"); err == nil {
		t.Error("unknown ref loaded")
	}
	// Same label in two spec groups is ambiguous as a bare ref.
	other := runSmoke(t)
	other.Spec.Sizes = []int{4}
	if _, err := st.Save(other, "tagged"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("tagged"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous ref: got %v", err)
	}
}

// TestListSurvivesMutatedStore pins the read-snapshot contract behind the
// HTTP server: a store being written (or half-synced) underneath a listing
// yields the intact entries, not an error. Partial, foreign and in-flight
// files are all invisible; List, LatestPair and Stat agree on what counts.
func TestListSurvivesMutatedStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	e1, err := st.Save(rep, "first")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(rep, "second"); err != nil {
		t.Fatal(err)
	}
	group := filepath.Join(dir, e1.SpecHash)
	// The kinds of debris a live or half-copied store can hold:
	writeFile := func(path, content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(filepath.Join(group, "third.abc123.tmp"), `{"spec_hash":"x"`) // in-flight save
	writeFile(filepath.Join(group, "truncated.json"), `{"spec_hash":"`)     // partial copy
	writeFile(filepath.Join(group, "foreign.json"), `{}`)                   // parses, but no entry
	writeFile(filepath.Join(group, "notes.txt"), "scratch")                 // stray non-JSON
	writeFile(filepath.Join(dir, "README"), "top-level stray")              // stray at the root
	if err := os.MkdirAll(filepath.Join(group, "subdir"), 0o755); err != nil {
		t.Fatal(err)
	}

	entries, err := st.List()
	if err != nil {
		t.Fatalf("List over mutated store: %v", err)
	}
	if len(entries) != 2 || entries[0].Label != "first" || entries[1].Label != "second" {
		t.Fatalf("entries = %+v, want the two intact runs", entries)
	}
	old, latest, err := st.LatestPair()
	if err != nil {
		t.Fatalf("LatestPair over mutated store: %v", err)
	}
	if old.Label != "first" || latest.Label != "second" {
		t.Errorf("LatestPair = %s → %s", old.Label, latest.Label)
	}
	stat, err := st.Stat()
	if err != nil {
		t.Fatal(err)
	}
	// foreign.json and truncated.json are .json files and counted by size
	// (Stat sizes the directory); but only intact runs are listable. The
	// report count tracks .json files — debris inflates bytes, never refs.
	if stat.Specs != 1 {
		t.Errorf("stat.Specs = %d, want 1", stat.Specs)
	}
	if stat.Bytes == 0 {
		t.Error("stat.Bytes = 0")
	}
	// A save sequenced after the debris still works and continues the
	// sequence from the intact entries.
	e3, err := st.Save(rep, "")
	if err != nil {
		t.Fatal(err)
	}
	if e3.Seq != 3 {
		t.Errorf("post-debris save seq = %d, want 3", e3.Seq)
	}
}

// TestListFailsLoudOnUnreadableEntry draws the line of the snapshot
// tolerance: a file that exists but cannot be read at all (here a symlink
// loop standing in for I/O trouble) is a store fault, not store churn —
// List must error rather than silently shrink and let a downstream diff
// gate conclude "nothing to compare".
func TestListFailsLoudOnUnreadableEntry(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.Save(runSmoke(t), "good")
	if err != nil {
		t.Fatal(err)
	}
	loop := filepath.Join(dir, e.SpecHash, "broken.json")
	if err := os.Symlink(loop, loop); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if _, err := st.List(); err == nil {
		t.Error("List over an unreadable entry succeeded; a broken store must stay loud")
	}
}

// TestKeyedLookupAndSentinels covers the server-facing store API: exact
// GetEntry, spec-only loads, ref resolution misses wrapping ErrNotFound,
// LatestPair wrapping ErrNeedTwoRuns, and ETag shape.
func TestKeyedLookupAndSentinels(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LatestPair(); !errors.Is(err, ErrNeedTwoRuns) {
		t.Errorf("LatestPair on empty store: %v, want ErrNeedTwoRuns", err)
	}
	rep := runSmoke(t)
	e, err := st.Save(rep, "only")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.LatestPair(); !errors.Is(err, ErrNeedTwoRuns) {
		t.Errorf("LatestPair with one run: %v, want ErrNeedTwoRuns", err)
	}

	got, err := st.GetEntry(e.SpecHash, "only")
	if err != nil || got != e {
		t.Errorf("GetEntry = %+v, %v", got, err)
	}
	if _, err := st.GetEntry(e.SpecHash, "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("GetEntry miss: %v, want ErrNotFound", err)
	}
	// Hostile keys can never escape the store directory; they are simply
	// not found.
	for _, bad := range [][2]string{{"..", "only"}, {e.SpecHash, "../only"}, {"ZZ", "only"}} {
		if _, err := st.GetEntry(bad[0], bad[1]); !errors.Is(err, ErrNotFound) {
			t.Errorf("GetEntry(%q, %q): %v, want ErrNotFound", bad[0], bad[1], err)
		}
	}
	if _, err := st.Resolve("nonesuch"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Resolve miss: %v, want ErrNotFound", err)
	}
	if _, err := st.Save(rep, "only"); !errors.Is(err, ErrLabelTaken) {
		t.Errorf("duplicate save: %v, want ErrLabelTaken", err)
	}
	if _, err := st.Save(rep, "sp ace"); !errors.Is(err, ErrBadLabel) {
		t.Errorf("bad label save: %v, want ErrBadLabel", err)
	}

	spec, err := st.LoadSpec(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Protocols) != 1 || spec.Protocols[0] != "build-forest" {
		t.Errorf("LoadSpec protocols = %v", spec.Protocols)
	}

	if tag := e.ETag("json"); tag != `"`+e.SpecHash+`/only:json"` {
		t.Errorf("ETag = %s", tag)
	}
	if e.ETag("json") == e.ETag("csv") {
		t.Error("representations share an ETag")
	}
}

// TestStoredExhaustiveMemoizedRoundTrip extends the store/diff round trip
// to memoized exhaustive reports: the dedup stats (classes, steps_saved)
// survive JSON persistence and re-running the spec diffs clean.
func TestStoredExhaustiveMemoizedRoundTrip(t *testing.T) {
	spec := campaign.Spec{
		Name:      "store-exhaustive-test",
		Protocols: []string{"mis"},
		Graphs:    []string{"cycle"},
		Sizes:     []int{5},
		Mode:      campaign.ModeExhaustive,
	}
	run := func(s campaign.Spec) *campaign.Report {
		rep, err := campaign.Run(s, campaign.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(run(spec), "memo-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(run(spec), "memo-2"); err != nil {
		t.Fatal(err)
	}
	oldRep, _, err := st.Load("memo-1")
	if err != nil {
		t.Fatal(err)
	}
	if e := oldRep.Cells[0].Exhaustive; e == nil || e.Classes == 0 || e.StepsSaved == 0 {
		t.Fatalf("dedup stats lost in round trip: %+v", oldRep.Cells[0].Exhaustive)
	}
	newRep, _, err := st.Load("memo-2")
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffReports(oldRep, newRep); !d.Empty() {
		t.Errorf("re-running the memoized spec produced deltas: %+v", d.Deltas)
	}
}

// TestStoredNaiveReportStillServes pins the compatibility side of the
// retired tree-walk strategy: a report stored with memoize:false (the
// campaign package's report_exhaustive_naive golden) still saves, lists,
// loads and renders byte-identically as JSON and CSV, and diffs against
// the memoized golden of the same cell exactly as before — deltas in the
// traversal diagnostics only, rendered as pinned by the diff goldens.
func TestStoredNaiveReportStillServes(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "campaign", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	save := func(name, label string) (*campaign.Report, Entry) {
		var rep campaign.Report
		if err := json.Unmarshal(read(name), &rep); err != nil {
			t.Fatal(err)
		}
		e, err := st.Save(&rep, label)
		if err != nil {
			t.Fatal(err)
		}
		stored, _, err := st.Load(e.Ref())
		if err != nil {
			t.Fatal(err)
		}
		return stored, e
	}
	naive, ne := save("report_exhaustive_naive.json", "naive")
	memo, me := save("report_exhaustive.json", "memo")
	entries, err := st.List()
	if err != nil || len(entries) != 2 {
		t.Fatalf("list = %v, %v; want the naive and the memoized run", entries, err)
	}
	for _, format := range []string{"json", "csv"} {
		var buf bytes.Buffer
		if err := naive.Render(&buf, format); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), read("report_exhaustive_naive."+format)) {
			t.Errorf("stored naive report renders %s differently:\n%s", format, buf.Bytes())
		}
	}
	d := DiffReports(naive, memo)
	d.OldRef, d.NewRef = ne.Ref(), me.Ref()
	for _, f := range d.Deltas[0].Fields {
		switch f.Field {
		case "steps", "classes", "steps_saved":
		default:
			t.Errorf("unexpected delta %q (%s -> %s): strategies must agree on tallies", f.Field, f.Old, f.New)
		}
	}
	var txt, js bytes.Buffer
	if err := d.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	testutil.CheckGolden(t, "diff_naive_vs_memoized.txt", txt.Bytes())
	testutil.CheckGolden(t, "diff_naive_vs_memoized.json", js.Bytes())
}

// TestStoredRunsDiffClean is the end-to-end contract behind the CI gate:
// store two runs of the same spec, diff them, expect zero deltas.
func TestStoredRunsDiffClean(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(runSmoke(t), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(runSmoke(t), ""); err != nil {
		t.Fatal(err)
	}
	old, latest, err := st.LatestPair()
	if err != nil {
		t.Fatal(err)
	}
	oldRep, _, err := st.Load(old.Ref())
	if err != nil {
		t.Fatal(err)
	}
	newRep, _, err := st.Load(latest.Ref())
	if err != nil {
		t.Fatal(err)
	}
	if d := DiffReports(oldRep, newRep); !d.Empty() {
		t.Errorf("re-running the same spec produced deltas: %+v", d.Deltas)
	}
}

// TestGC pins the store-hygiene contract: all but the newest keep runs of
// every spec group are pruned, caller-labeled runs pin the pass without
// force, and force removes them too.
func TestIngestAndCodecMetrics(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	st.SetMetrics(set.Store)
	ingests := set.Registry.Counter("wb_store_ingests_total", "")
	encoded := set.Registry.Counter("wb_store_codec_encoded_bytes_total", "")
	decoded := set.Registry.Counter("wb_store_codec_decoded_bytes_total", "")
	rep := runSmoke(t)
	e, err := st.Save(rep, "pinned")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, e.SpecHash, e.Label+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		CellsPacked []byte `json:"cells_packed"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	packed := int64(len(doc.CellsPacked))
	if packed == 0 {
		t.Fatal("stored envelope has no cells_packed payload")
	}
	if ingests.Value() != 1 || encoded.Value() != packed {
		t.Fatalf("after one save: ingests %d, encoded bytes %d; want 1 and the envelope's %d",
			ingests.Value(), encoded.Value(), packed)
	}

	// A save refused under a taken label moves neither counter.
	if _, err := st.Save(rep, "pinned"); !errors.Is(err, ErrLabelTaken) {
		t.Fatalf("second save under the same label: %v, want ErrLabelTaken", err)
	}
	if ingests.Value() != 1 || encoded.Value() != packed {
		t.Errorf("after a refused save: ingests %d, encoded bytes %d; want 1 and %d",
			ingests.Value(), encoded.Value(), packed)
	}

	before := decoded.Value()
	if _, err := st.LoadEntry(e); err != nil {
		t.Fatal(err)
	}
	if got := decoded.Value() - before; got != packed {
		t.Errorf("one load decoded %d bytes, want %d", got, packed)
	}
}

func TestGC(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := telemetry.NewSet()
	st.SetMetrics(set.Store)
	gcRemoved := set.Registry.Counter("wb_store_gc_removed_total", "")
	rep := runSmoke(t)
	for i := 0; i < 4; i++ {
		if _, err := st.Save(rep, ""); err != nil { // run-001..run-004
			t.Fatal(err)
		}
	}
	// A second spec group with a single run must be untouched by GC.
	other := runSmoke(t)
	other.Spec.Sizes = []int{4}
	if _, err := st.Save(other, ""); err != nil {
		t.Fatal(err)
	}

	res, err := st.GC(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Removed) != 2 || res.Kept != 3 {
		t.Fatalf("GC removed %d kept %d, want 2 removed 3 kept", len(res.Removed), res.Kept)
	}
	for i, want := range []string{"run-001", "run-002"} {
		if res.Removed[i].Label != want {
			t.Errorf("Removed[%d] = %s, want %s (oldest first)", i, res.Removed[i].Label, want)
		}
	}
	if got := gcRemoved.Value(); got != 2 {
		t.Errorf("wb_store_gc_removed_total = %d after removing 2 runs", got)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries after GC, want 3", len(entries))
	}
	for _, e := range entries {
		if e.Label == "run-001" || e.Label == "run-002" {
			t.Errorf("pruned run %s still listed", e.Ref())
		}
	}

	// Idempotent: nothing above the watermark, nothing removed.
	res, err = st.GC(2, false)
	if err != nil || len(res.Removed) != 0 {
		t.Fatalf("second GC removed %d, err %v", len(res.Removed), err)
	}

	// A labeled run below the watermark blocks the pass...
	if _, err := st.Save(rep, "pinned-v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(rep, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(rep, ""); err != nil {
		t.Fatal(err)
	}
	_, gcErr := st.GC(2, false)
	if !errors.Is(gcErr, ErrLabeledRuns) {
		t.Fatalf("GC over a pinned run: err = %v, want ErrLabeledRuns", gcErr)
	}
	if !strings.Contains(gcErr.Error(), "pinned-v1") {
		t.Errorf("refusal does not name the pinned run: %v", gcErr)
	}
	// ...and nothing was removed by the refused pass.
	entries, _ = st.List()
	if len(entries) != 6 {
		t.Fatalf("refused GC mutated the store: %d entries, want 6", len(entries))
	}

	// force prunes labeled runs too.
	res, err = st.GC(1, true)
	if err != nil {
		t.Fatal(err)
	}
	removed := map[string]bool{}
	for _, e := range res.Removed {
		removed[e.Label] = true
	}
	if !removed["pinned-v1"] {
		t.Errorf("force GC spared the pinned run; removed %v", res.Removed)
	}
	// The refused pass removed nothing; the counter holds every removal.
	if got, want := gcRemoved.Value(), int64(2+len(res.Removed)); got != want {
		t.Errorf("wb_store_gc_removed_total = %d, want %d", got, want)
	}
	entries, _ = st.List()
	if len(entries) != 2 { // one per spec group
		t.Errorf("%d entries after force GC -keep 1, want 2", len(entries))
	}

	if _, err := st.GC(0, false); err == nil {
		t.Error("GC keep=0 accepted; it would empty the store")
	}
}

// TestAutoLabel pins the pinned-vs-auto label classification GC rests on.
func TestAutoLabel(t *testing.T) {
	for label, want := range map[string]bool{
		"run-001": true, "run-1234": true,
		"run-01": false, "run-": false, "run-abc": false,
		"v1.2-3-gabc123": false, "pinned": false, "run-001x": false,
	} {
		if got := AutoLabel(label); got != want {
			t.Errorf("AutoLabel(%q) = %v, want %v", label, got, want)
		}
	}
}

// TestStatCountsOnlyValidEntries pins the Stat/List agreement fix: a
// foreign or half-written .json planted in a group directory must not
// inflate the report count the health endpoints expose.
func TestStatCountsOnlyValidEntries(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	e, err := st.Save(rep, "")
	if err != nil {
		t.Fatal(err)
	}
	group := filepath.Join(st.Dir(), e.SpecHash)
	if err := os.WriteFile(filepath.Join(group, "foreign.json"), []byte(`{"hello":"world"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(group, "partial.json"), []byte(`{"spec_hash": "tru`), 0o644); err != nil {
		t.Fatal(err)
	}
	// A whole group holding nothing but debris is not a spec either.
	debrisGroup := filepath.Join(st.Dir(), "feedfeedfeed")
	if err := os.MkdirAll(debrisGroup, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(debrisGroup, "junk.json"), []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	stats, err := st.Stat()
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reports != len(entries) {
		t.Errorf("Stat.Reports = %d but List sees %d entries", stats.Reports, len(entries))
	}
	if stats.Specs != 1 || stats.Reports != 1 {
		t.Errorf("Stat = %+v, want 1 spec / 1 report", stats)
	}
	if stats.Bytes <= 0 {
		t.Errorf("Stat.Bytes = %d, want > 0", stats.Bytes)
	}
}

// TestSaveAutoLabelRaceExhaustion pins the auto-label error fix: a save
// that chose no label and loses every run-NNN race must not be told to
// "pick a new label" it never picked, and must not claim ErrLabelTaken.
func TestSaveAutoLabelRaceExhaustion(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orig := osLink
	osLink = func(oldname, newname string) error {
		return &os.LinkError{Op: "link", Old: oldname, New: newname, Err: syscall.EEXIST}
	}
	t.Cleanup(func() { osLink = orig })
	_, err = st.Save(runSmoke(t), "")
	if err == nil {
		t.Fatal("save succeeded though every link lost its race")
	}
	if errors.Is(err, ErrLabelTaken) {
		t.Errorf("auto-label exhaustion reported as ErrLabelTaken: %v", err)
	}
	if strings.Contains(err.Error(), "pick a new label") {
		t.Errorf("auto-label exhaustion tells the caller to pick a label it never chose: %v", err)
	}
	if !strings.Contains(err.Error(), "auto-label") {
		t.Errorf("auto-label exhaustion does not name the auto-label path: %v", err)
	}
}

// TestWriteFallsBackWithoutHardlinks forces the hard-link path to fail
// the way hardlink-free filesystems do and checks the exclusive-create
// fallback preserves every write guarantee: saves land and load, and
// create-once still holds for duplicate labels.
func TestWriteFallsBackWithoutHardlinks(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	orig := osLink
	osLink = func(oldname, newname string) error {
		return &os.LinkError{Op: "link", Old: oldname, New: newname, Err: syscall.ENOTSUP}
	}
	t.Cleanup(func() { osLink = orig })
	rep := runSmoke(t)
	e, err := st.Save(rep, "tagged")
	if err != nil {
		t.Fatalf("save via fallback: %v", err)
	}
	loaded, _, err := st.Load(e.Ref())
	if err != nil {
		t.Fatal(err)
	}
	var orig2, back bytes.Buffer
	if err := rep.WriteJSON(&orig2); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteJSON(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig2.Bytes(), back.Bytes()) {
		t.Error("fallback-written report did not round-trip byte-identically")
	}
	if _, err := st.Save(rep, "tagged"); !errors.Is(err, ErrLabelTaken) {
		t.Errorf("duplicate label via fallback: got %v, want ErrLabelTaken", err)
	}
	if _, err := st.Save(rep, ""); err != nil {
		t.Errorf("auto-label save via fallback: %v", err)
	}
	// No temp debris left behind in the group directory.
	files, err := os.ReadDir(filepath.Join(st.Dir(), e.SpecHash))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), ".tmp") {
			t.Errorf("fallback left temp debris %s", f.Name())
		}
	}
}

// TestResolveHashPrefixMinimum pins the uniform ≥4-hex-digit prefix rule
// across both ref forms; before the fix the <hash>/<label> form matched
// prefixes of any length.
func TestResolveHashPrefixMinimum(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	e, err := st.Save(rep, "tagged")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ref string
		ok  bool
	}{
		{e.SpecHash + "/tagged", true},
		{e.SpecHash[:6] + "/tagged", true},
		{e.SpecHash[:4] + "/tagged", true},
		{e.SpecHash[:3] + "/tagged", false},
		{e.SpecHash[:1] + "/tagged", false},
		{e.SpecHash, true},
		{e.SpecHash[:4], true},
		{e.SpecHash[:3], false},
	} {
		got, err := st.Resolve(tc.ref)
		if tc.ok {
			if err != nil || got.Ref() != e.Ref() {
				t.Errorf("Resolve(%q) = %+v, %v; want %s", tc.ref, got, err, e.Ref())
			}
		} else if !errors.Is(err, ErrNotFound) {
			t.Errorf("Resolve(%q) = %+v, %v; want ErrNotFound", tc.ref, got, err)
		}
	}
}
