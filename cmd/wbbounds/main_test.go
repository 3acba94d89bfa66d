package main

import (
	"slices"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("16, 32,64")
	if err != nil || !slices.Equal(got, []int{16, 32, 64}) {
		t.Fatalf("parseInts: %v, %v", got, err)
	}
	for _, bad := range []string{"1x6", "abc", "0", "-4", "16,,32", ""} {
		if got, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) = %v, want an error", bad, got)
		}
	}
}
