package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// paperTable2 is Table 2 of the paper, one row per problem, in the models'
// order SIMASYNC, SIMSYNC, ASYNC, SYNC.
var paperTable2 = []struct {
	problem string
	cells   [4]string
}{
	{"BUILD k-degenerate", [4]string{"yes", "yes", "yes", "yes"}},
	{"rooted MIS", [4]string{"no", "yes", "yes", "yes"}},
	{"TRIANGLE", [4]string{"no", "yes", "yes", "yes"}},
	{"EOB-BFS", [4]string{"no", "no", "yes", "yes"}},
	{"BFS", [4]string{"?", "?", "?", "yes"}},
	{"2-CLIQUES", [4]string{"?", "yes", "yes", "yes"}},
}

// TestTable2 pins wbtable2's verbose output and checks that its grid is the
// paper's, so a cell that slips to "?" or FAIL fails here even if the
// golden file is regenerated.
func TestTable2(t *testing.T) {
	var buf bytes.Buffer
	if failed := run(&buf, true); failed != 0 {
		t.Errorf("run reported %d failed cells", failed)
	}
	testutil.CheckGolden(t, "table2.golden", buf.Bytes())

	lines := strings.Split(buf.String(), "\n")
	for _, want := range paperTable2 {
		i := rowLine(lines, want.problem)
		if i < 0 {
			t.Errorf("no row for %s", want.problem)
			continue
		}
		var got [4]string
		copy(got[:], strings.Fields(lines[i][len(want.problem):]))
		if got != want.cells {
			t.Errorf("%s: grid reads %v, paper's Table 2 reads %v", want.problem, got, want.cells)
		}
	}
	// No registered protocol runs TRIANGLE under SIMSYNC: its evidence must
	// say that the cell is taken from the paper.
	if i := rowLine(lines, "TRIANGLE"); i < 0 || i+2 >= len(lines) ||
		!strings.Contains(lines[i+2], "SIMSYNC:") || !strings.Contains(lines[i+2], "Table 2 (paper)") {
		t.Errorf("TRIANGLE/SIMSYNC evidence does not mark the cell as by reference")
	}
}

// rowLine returns the index of the grid line for problem, or -1.
func rowLine(lines []string, problem string) int {
	for i, l := range lines {
		if rest, ok := strings.CutPrefix(l, problem); ok && strings.HasPrefix(rest, " ") &&
			len(strings.Fields(rest)) == 4 {
			return i
		}
	}
	return -1
}
