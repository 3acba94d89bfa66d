package testutil

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"
)

// CheckNoGoroutines fails t if a goroutine other than a test's own still
// runs a function whose name starts with frame, such as
// "repro/internal/fabric." for a whole package or
// "repro/internal/server.(*jobManager)" for one type's methods. Call it
// after the call that owns those goroutines has returned. It polls for at
// most 100ms, because a goroutine already past its WaitGroup's Done may
// still be returning.
func CheckNoGoroutines(t testing.TB, frame string) {
	t.Helper()
	deadline := time.Now().Add(100 * time.Millisecond)
	for {
		left := goroutinesIn(frame)
		if len(left) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines in %s outlived their owner:\n\n%s",
				len(left), frame, strings.Join(left, "\n\n"))
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// goroutinesIn returns the stacks of the goroutines with a function
// starting with prefix, leaving out the caller's own and every test
// goroutine.
func goroutinesIn(prefix string) []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Stacks are separated by blank lines, the caller's own first.
	stacks := bytes.Split(buf, []byte("\n\n"))[1:]
	var out []string
	for _, st := range stacks {
		s := string(st)
		if strings.Contains(s, "\ntesting.tRunner(") {
			continue
		}
		// Function lines start a line; file lines are indented and
		// "created by" lines name the parent, not this goroutine's code.
		if strings.Contains(s, "\n"+prefix) {
			out = append(out, s)
		}
	}
	return out
}
