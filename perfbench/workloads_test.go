package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// output is the result line every run ends with.
type output struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestWorkloadsShort runs the short mode of every workload, plain and
// traced, and checks that each prints exactly its metric table with
// units, fails no op, and that a traced run writes its span file.
func TestWorkloadsShort(t *testing.T) {
	for _, name := range []string{"exhaustive", "fleet", "serve"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"-workload", name, "-seed", "5", "-seconds", "1", "-trace", trace,
					"-short", "-workdir", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out output
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d; stderr: %s",
						out.Correct, out.Attempted, out.Failed, stderr.String())
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("%d metrics printed, want %d", len(out.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := out.Metrics[d.name]
					if !ok || m.Value == nil || m.Unit != d.unit {
						t.Errorf("metric %s missing or without unit %q: %+v", d.name, d.unit, m)
						continue
					}
					if trace == "0" && *m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, *m.Value)
					}
				}
				var rec struct {
					Record map[string]any `json:"record"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &rec); err != nil {
					t.Fatalf("record line: %v", err)
				}
				for _, k := range []string{"go", "gomaxprocs", "nproc", "cpu", "commit", "attempted", "failed"} {
					if _, ok := rec.Record[k]; !ok {
						t.Errorf("record lacks %q", k)
					}
				}
				if trace == "1" {
					path, _ := rec.Record["span_file"].(string)
					if _, err := os.Stat(path); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's tables equal to the
// harness's.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside this directory: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
	}
	check := func(table string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", table, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)",
					table, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
