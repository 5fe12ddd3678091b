package wire

import (
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// UpsertEncoder writes an upsert body one tuple at a time: once the
// tuples ts are added, Bytes returns the bytes json.Marshal(
// UpsertRequest{Tuples: ts}) returns for the non-nil slice ts. It is
// how the router encodes the write fan-out of its upserts and routed
// creates — a create's while its body still decodes; equal bytes keep
// the nodes on the one-pass tuple reader (StreamCreate) and make a
// replayed write identical to the original. The zero value is an empty body.
type UpsertEncoder struct {
	b []byte
}

// Add appends one tuple.
func (e *UpsertEncoder) Add(t TupleDTO) {
	if len(e.b) == 0 {
		e.b = append(e.b, `{"tuples":[`...)
	} else {
		e.b = append(e.b, ',')
	}
	b := append(e.b, '{')
	if t.ID != 0 {
		b = append(b, `"id":`...)
		b = strconv.AppendInt(b, int64(t.ID), 10)
		b = append(b, ',')
	}
	b = append(b, `"key":`...)
	b = appendString(b, t.Key)
	if len(t.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for j, a := range t.Attrs {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendString(b, a)
		}
		b = append(b, ']')
	}
	e.b = append(b, '}')
}

// Len returns the length of the body written so far: 0 until a tuple
// is added.
func (e *UpsertEncoder) Len() int { return len(e.b) }

// Grow reserves room for at least n more bytes.
func (e *UpsertEncoder) Grow(n int) { e.b = slices.Grow(e.b, n) }

// Bytes returns the body. The encoder is spent: add nothing after.
func (e *UpsertEncoder) Bytes() []byte {
	if len(e.b) == 0 {
		return []byte(`{"tuples":[]}`)
	}
	return append(e.b, "]}"...)
}

// appendString appends s quoted as encoding/json quotes it, HTML
// escaping included: ", \ and the control characters escaped (\b, \f,
// \n, \r, \t by name, the rest and <, >, & as \u00XX), invalid UTF-8 as
// \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	run := 0 // the first byte of s not yet appended
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[run:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			run = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[run:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[run:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		run = i
	}
	b = append(b, s[run:]...)
	return append(b, '"')
}

// htmlSafe marks the ASCII bytes encoding/json writes as themselves:
// all but the control characters, ", \, <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()
