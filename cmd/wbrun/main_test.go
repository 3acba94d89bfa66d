package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpectrumGolden pins what `wbrun -spectrum` prints, rendered output
// keys included, for protocols whose outputs render through their own
// AppendString (build-forest's Decoded) and through fmt (build-kdeg's
// Decoded, mis's and two-cliques' answers, bfs's and connectivity's
// forests). Each golden is named after its protocol, graph and n.
func TestSpectrumGolden(t *testing.T) {
	for _, c := range [][3]string{
		{"build-forest", "path", "5"},
		{"build-forest", "cycle", "5"},
		{"mis", "cycle", "5"},
		{"build-kdeg", "kdeg", "5"},
		{"two-cliques", "two-cliques", "6"},
		{"bfs", "path", "4"},
		{"connectivity", "cycle", "4"},
	} {
		name := "spectrum-" + strings.Join(c[:], "-")
		want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-protocol", c[0], "-graph", c[1], "-n", c[2], "-spectrum"}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: printed\n%s\nwant\n%s", name, out.Bytes(), want)
		}
	}
}

// TestTooSmallGraphIsAnError pins that a size the graph family rejects
// comes back from run as an error, which main prints as
// "wbrun: graph: cycle needs n ≥ 3, got 1" before exiting 1, and that
// nothing is printed before it.
func TestTooSmallGraphIsAnError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-protocol", "mis", "-graph", "cycle", "-n", "1"}, &out)
	if want := "graph: cycle needs n ≥ 3, got 1"; err == nil || err.Error() != want {
		t.Fatalf("run = %v, want %q", err, want)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before failing", out.Bytes())
	}
}
