package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/campaign"
)

// TestExampleReportsUnchanged pins what the engine computes for the example
// campaigns, not just the report format the goldens pin: every
// examples/campaigns spec runs in process and the SHA-256 of its JSON and
// CSV reports must match testdata/example_reports.sha256. The file is in
// sha256sum's format, one "<digest>  <spec>/report.<json|csv>" line per
// report. A mismatch logs the computed table, so a change that means to
// alter what an example computes regenerates the file from that log and
// says so. Under -short the three slow specs, sweep, fleet and
// exhaustive-c11, are skipped.
func TestExampleReportsUnchanged(t *testing.T) {
	want := readDigests(t, filepath.Join("testdata", "example_reports.sha256"))
	specs, err := filepath.Glob(filepath.Join("..", "..", "examples", "campaigns", "*.json"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no example specs (%v)", err)
	}
	var table strings.Builder
	covered := map[string]bool{}
	for _, path := range specs {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			if testing.Short() && (name == "sweep" || name == "fleet" || name == "exhaustive-c11") {
				t.Skip("slow example; the full test job runs it")
			}
			spec, err := campaign.LoadSpec(path)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := campaign.Run(spec, campaign.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			var js, csv bytes.Buffer
			if err := rep.WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			if err := rep.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			for _, r := range []struct {
				file string
				body []byte
			}{{name + "/report.json", js.Bytes()}, {name + "/report.csv", csv.Bytes()}} {
				sum := sha256.Sum256(r.body)
				got := hex.EncodeToString(sum[:])
				fmt.Fprintf(&table, "%s  %s\n", got, r.file)
				covered[r.file] = true
				if got != want[r.file] {
					t.Errorf("%s: sha256 %s, want %q", r.file, got, want[r.file])
				}
			}
		})
	}
	if !testing.Short() {
		for file := range want {
			if !covered[file] {
				t.Errorf("%s is pinned but no example spec produces it", file)
			}
		}
	}
	if t.Failed() {
		t.Logf("computed digests:\n%s", table.String())
	}
}

// readDigests parses a sha256sum-format file into file → hex digest.
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, file, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[file] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
