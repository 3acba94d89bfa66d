// Package jsonindent renders values as the indented JSON every emitter in
// this repository writes: reports, diffs, stored envelopes, server bodies
// and traces.
//
// encoding/json stays the only encoder. json.MarshalIndent marshals
// compactly and then runs encoding/json's validating scanner over every
// byte again only to add whitespace; output that encoding/json just
// produced is valid by construction, so one linear pass that skips string
// contents indents it instead.
package jsonindent

import (
	"bytes"
	"encoding/json"
	"sync"
)

// compact holds the compact encodings Marshal indents from, so that a
// render allocates only the indented bytes it returns.
var compact = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Marshal returns json.Marshal's encoding of v indented by two spaces per
// level, with no prefix, followed by a newline: the bytes of
// json.MarshalIndent(v, "", "  ") plus "\n".
func Marshal(v any) ([]byte, error) {
	buf := compact.Get().(*bytes.Buffer)
	defer compact.Put(buf)
	buf.Reset()
	// An Encoder escapes HTML as json.Marshal does and ends the value
	// with a newline, which the indenter leaves off and appends itself.
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, err
	}
	src := buf.Bytes()[:buf.Len()-1]
	return appendIndent(make([]byte, 0, 2*len(src)+1), src), nil
}

// appendIndent appends src, which must be compact valid JSON, indented as
// json.Indent(dst, src, "", "  ") does, and a newline. Runs of bytes with
// nothing to add between them are copied as one slice.
func appendIndent(dst, src []byte) []byte {
	depth := 0
	start := 0 // the first byte of src not yet copied to dst
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '"':
			for i++; src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			if next := src[i+1]; next == '}' || next == ']' {
				i++ // an empty container stays {} or []
				continue
			}
			depth++
			dst = appendNewline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case '}', ']':
			depth--
			dst = appendNewline(append(dst, src[start:i]...), depth)
			start = i
		case ',':
			dst = appendNewline(append(dst, src[start:i+1]...), depth)
			start = i + 1
		case ':':
			dst = append(append(dst, src[start:i+1]...), ' ')
			start = i + 1
		}
	}
	return append(append(dst, src[start:]...), '\n')
}

// appendNewline starts a new line indented to depth.
func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}
