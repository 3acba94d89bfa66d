package resultstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/testutil"
)

// goldenReports loads the campaign package's pinned report fixtures — the
// byte-exactness oracle for the columnar codec.
func goldenReports(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "campaign", "testdata", "report_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden reports found: %v", err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// TestCodecGoldenRoundTrip pins the tentpole guarantee: a report whose
// cells pass through the columnar codec renders byte-identically to the
// existing goldens — the packed format changes storage, never content.
func TestCodecGoldenRoundTrip(t *testing.T) {
	for name, golden := range goldenReports(t) {
		var rep campaign.Report
		if err := json.Unmarshal(golden, &rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		packed := encodeCells(rep.Cells)
		cells, err := decodeCells(packed)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		rep.Cells = cells
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			t.Errorf("%s: report did not survive the columnar codec byte-identically", name)
		}
		if float64(len(packed)) > 0.5*float64(len(golden)) {
			t.Errorf("%s: packed cells are %d bytes for a %d-byte report; expected real compression", name, len(packed), len(golden))
		}
	}
}

// TestCodecNilVersusEmpty pins the JSON null-vs-[] distinction through
// the codec.
func TestCodecNilVersusEmpty(t *testing.T) {
	got, err := decodeCells(encodeCells(nil))
	if err != nil || got != nil {
		t.Fatalf("nil cells: got %v, %v", got, err)
	}
	got, err = decodeCells(encodeCells([]campaign.Cell{}))
	if err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty cells: got %#v, %v", got, err)
	}
}

// TestCodecRejectsCorruption drives the decoder through every truncation
// of a real block plus the classic corruptions; each must error, never
// panic, never succeed.
func TestCodecRejectsCorruption(t *testing.T) {
	var rep campaign.Report
	for _, golden := range goldenReports(t) {
		if err := json.Unmarshal(golden, &rep); err != nil {
			t.Fatal(err)
		}
		break
	}
	block := encodeCells(rep.Cells)
	for n := 0; n < len(block); n++ {
		if _, err := decodeCells(block[:n]); err == nil {
			t.Fatalf("decode accepted a block truncated to %d of %d bytes", n, len(block))
		}
	}
	if _, err := decodeCells(append(append([]byte{}, block...), 0)); err == nil {
		t.Error("decode accepted trailing garbage")
	}
	bad := append([]byte{}, block...)
	bad[0] ^= 0xff
	if _, err := decodeCells(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: got %v", err)
	}
	if _, err := decodeCells([]byte(cellsMagic + "\x02")); err == nil {
		t.Error("decode accepted an unknown cell-table kind")
	}
	if _, err := decodeCells(nil); err == nil {
		t.Error("decode accepted empty input")
	}
}

// FuzzDecodeCells asserts decode never panics, and that anything it does
// accept is internally consistent: re-encoding the result must produce a
// block that decodes to the same cells.
func FuzzDecodeCells(f *testing.F) {
	for _, golden := range goldenReports(f) {
		var rep campaign.Report
		if err := json.Unmarshal(golden, &rep); err != nil {
			f.Fatal(err)
		}
		f.Add(encodeCells(rep.Cells))
	}
	f.Add([]byte(cellsMagic + "\x00"))
	f.Add([]byte(cellsMagic + "\x01\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cells, err := decodeCells(data)
		if err != nil {
			return
		}
		again, err := decodeCells(encodeCells(cells))
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		if !reflect.DeepEqual(cells, again) {
			t.Fatal("decode → encode → decode changed the cell table")
		}
	})
}

// TestStoredEnvelopeUsesColumnarFormat checks the physical layout: a
// fresh envelope carries format 2 with packed cells and no inline cell
// array.
func TestStoredEnvelopeUsesColumnarFormat(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	e, err := st.Save(rep, "")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(st.Dir(), e.SpecHash, e.Label+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"cells_packed"`)) || !bytes.Contains(raw, []byte(`"format": 2`)) {
		t.Error("stored envelope is not in the columnar format")
	}
	if bytes.Contains(raw, []byte(`"cells": [`)) {
		t.Error("stored envelope still carries the inline cell array")
	}
}

// TestEnvelopeGolden pins the bytes Save writes: the envelope of the
// sampled golden report under a fixed label, as the first run of a fresh
// store.
func TestEnvelopeGolden(t *testing.T) {
	var rep campaign.Report
	if err := json.Unmarshal(goldenReports(t)["report_sampled.json"], &rep); err != nil {
		t.Fatal(err)
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, err := st.Save(&rep, "golden")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(st.Dir(), e.SpecHash, e.Label+".json"))
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckGolden(t, "envelope_sampled.json", raw)
}

// TestLegacyEnvelopeStillLoads pins backward compatibility: an envelope
// written before the columnar format (full JSON report, no format field)
// must list, resolve and load unchanged.
func TestLegacyEnvelopeStillLoads(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep := runSmoke(t)
	hash := SpecHash(rep.Spec)
	env := envelope{
		Entry:  Entry{SpecHash: hash, Label: "legacy", Seq: 1, Name: rep.Spec.Name, Jobs: rep.Jobs, Cells: len(rep.Cells), Mode: "sampled"},
		Report: rep,
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(st.Dir(), hash), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(st.Dir(), hash, "legacy.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Label != "legacy" {
		t.Fatalf("legacy envelope missing from listing: %+v", entries)
	}
	loaded, _, err := st.Load(hash + "/legacy")
	if err != nil {
		t.Fatal(err)
	}
	var orig, back bytes.Buffer
	if err := rep.WriteJSON(&orig); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteJSON(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig.Bytes(), back.Bytes()) {
		t.Error("legacy envelope did not load byte-identically")
	}
}
