package jsonindent

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// FuzzIndentMatchesStdlib checks the one-pass indenter against
// encoding/json: for any valid document, compacted as json.Marshal would
// leave it, the indentation must equal json.Indent's with two spaces, plus
// the trailing newline, byte for byte.
func FuzzIndentMatchesStdlib(f *testing.F) {
	for _, seed := range []string{
		`{}`, `[]`, `[[],{}]`, `{"a":{"b":[]}}`,
		`{"a":[],"b":{},"c":[{}],"d":null}`,
		`{"q\"":"\\","a\\\"b":"\"\\\"","s":"x: y, z","k:,":[":",","]}`,
		// json.Marshal escapes <, & and U+2028; json.Compact keeps them raw.
		`["\u003c\u0026\u2028\u2029","\u00e9\ud83d\ude00"]`,
		"[\"<&\u2028\u2029\"]",
		strings.Repeat("[", 60) + strings.Repeat("]", 60),
		strings.Repeat(`{"k":[`, 30) + "1" + strings.Repeat("]}", 30),
		`[1e10,-2.5E-3,0.1e+2,1E+300,-0,12345678901234567890]`,
		`"top-level string"`, `-1.5e-7`, `true`, `null`,
		" { \"spaced\" : [ 1 , 2 ] ,\n\t\"x\" : { } } ",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !json.Valid(data) {
			return
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, data); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		if got := appendIndent(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indent of %q:\n got %q\nwant %q", compact.Bytes(), got, want.Bytes())
		}
	})
}

// TestMarshalMatchesMarshalIndent checks Marshal end to end on Go values:
// the HTML-escaped strings, empty and nil containers and byte slices that
// the repository's reports, envelopes and bodies carry.
func TestMarshalMatchesMarshalIndent(t *testing.T) {
	type cell struct {
		Name   string         `json:"name"`
		Counts []int          `json:"counts"`
		Empty  []int          `json:"empty"`
		Attrs  map[string]any `json:"attrs"`
		Packed []byte         `json:"packed"`
		Omit   *cell          `json:"omit,omitempty"`
	}
	for _, v := range []any{
		nil, 0, "a<b>&c\u2028", []int{}, map[string]any{},
		cell{Name: `q"\`, Counts: []int{1, 2}, Empty: []int{}, Attrs: map[string]any{"x": 1.5e-9, "y": []any{}}},
		[]cell{{Packed: []byte{0, 1, 254}}, {}},
	} {
		want, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Errorf("Marshal(%#v):\n got %q\nwant %q", v, got, want)
		}
	}
	if _, err := Marshal(func() {}); err == nil {
		t.Error("Marshal of a func returned no error")
	}
}

// TestMarshalConcurrent renders from several goroutines at once, as
// servers do: no render may see another's pooled compact bytes.
func TestMarshalConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := map[string]any{"g": g, "s": strings.Repeat("x", 100*g), "l": make([]int, g)}
			want, _ := json.MarshalIndent(v, "", "  ")
			for range 200 {
				got, err := Marshal(v)
				if err != nil || !bytes.Equal(got, append(want, '\n')) {
					t.Errorf("goroutine %d: got %q, %v", g, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
