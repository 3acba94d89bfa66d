package campaign_test

import (
	"fmt"

	"repro/campaign"
)

// Example runs a small sweep through the SDK: declare a spec, run it, and
// read the report's cells. The report lists cells in matrix order and the
// statistics are deterministic, so the output below is byte-stable at any
// worker count.
func Example() {
	spec := campaign.Spec{
		Name:        "quickstart",
		Protocols:   []string{"build-forest"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min"},
		Sizes:       []int{4, 6, 8},
	}
	rep, err := campaign.Run(spec, campaign.Options{Workers: 2})
	if err != nil {
		fmt.Println("sweep failed:", err)
		return
	}
	for i, c := range rep.Cells {
		fmt.Printf("cell %d/%d: %s on %s n=%d: %d/%d success, %d rounds, %d board bits\n",
			i+1, len(rep.Cells), c.Protocol, c.Graph, c.N, c.Success, c.Runs,
			c.Rounds.Max, c.BoardBits.Max)
	}
	// Output:
	// cell 1/3: build-forest on path n=4: 1/1 success, 5 rounds, 44 board bits
	// cell 2/3: build-forest on path n=6: 1/1 success, 7 rounds, 72 board bits
	// cell 3/3: build-forest on path n=8: 1/1 success, 9 rounds, 120 board bits
}
