package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"
)

// errTrailing refuses a body that holds more than one JSON value.
var errTrailing = errors.New("trailing data after the JSON value")

// Decode decodes a request body into dst, which must point to a zero
// value. Bodies of a *CreateIndexRequest, *UpsertRequest or
// *LinkRequestDTO in the canonical shape json.Marshal emits take a
// one-pass scanner. That shape is one object with exact-case field
// names in any order and none repeated, strings with standard escapes
// and valid UTF-8, plain integers, and JSON whitespace between tokens.
// Every other body, and every other dst, goes to DecodeReader on the
// same bytes. So encoding/json defines what every body means and every
// error message: the scanner accepts only bodies that encoding/json
// reads as the same value.
func Decode(body []byte, dst any) error {
	if decodeFast(body, dst) {
		return nil
	}
	return DecodeReader(bytes.NewReader(body), dst)
}

// DecodeReader is encoding/json's reading of one request body: unknown
// fields are refused, and so is anything but whitespace after the
// value.
func DecodeReader(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, tok := dec.Token(); tok != io.EOF {
			err = errTrailing
		}
	}
	return err
}

// decodeFast is the one-pass scanner. It reports false, leaving dst
// untouched, on any body outside the canonical shape.
func decodeFast(body []byte, dst any) bool {
	d := decoder{b: body}
	switch v := dst.(type) {
	case *CreateIndexRequest:
		var out CreateIndexRequest
		if !d.createIndex(&out) || !d.end() {
			return false
		}
		*v = out
	case *UpsertRequest:
		var out UpsertRequest
		if !d.upsert(&out) || !d.end() {
			return false
		}
		*v = out
	case *LinkRequestDTO:
		var out LinkRequestDTO
		if !d.link(&out) || !d.end() {
			return false
		}
		*v = out
	default:
		return false
	}
	return true
}

// decoder scans b from i. Each method reads one token or value and
// reports false on anything outside the canonical shape.
type decoder struct {
	b []byte
	i int
	// scratch is reused to unescape strings.
	scratch []byte
}

func (d *decoder) createIndex(out *CreateIndexRequest) bool {
	var seen fields
	return d.object(func(name []byte) bool {
		switch string(name) {
		case "name":
			return seen.once(0) && d.str(&out.Name)
		case "q":
			return seen.once(1) && d.int(&out.Q)
		case "theta":
			return seen.once(2) && d.float(&out.Theta)
		case "measure":
			return seen.once(3) && d.str(&out.Measure)
		case "shards":
			return seen.once(4) && d.int(&out.Shards)
		case "profile":
			return seen.once(5) && d.str(&out.Profile)
		case "tuples":
			return seen.once(6) && d.tuples(&out.Tuples)
		}
		return false
	})
}

func (d *decoder) upsert(out *UpsertRequest) bool {
	var seen fields
	return d.object(func(name []byte) bool {
		return string(name) == "tuples" && seen.once(0) && d.tuples(&out.Tuples)
	})
}

func (d *decoder) link(out *LinkRequestDTO) bool {
	var seen fields
	return d.object(func(name []byte) bool {
		switch string(name) {
		case "index":
			return seen.once(0) && d.str(&out.Index)
		case "key":
			return seen.once(1) && d.str(&out.Key)
		case "keys":
			return seen.once(2) && d.strs(&out.Keys)
		case "strategy":
			return seen.once(3) && d.str(&out.Strategy)
		case "futility_k":
			return seen.once(4) && d.int(&out.FutilityK)
		case "timeout_ms":
			return seen.once(5) && d.int(&out.TimeoutMillis)
		case "explain":
			return seen.once(6) && d.bool(&out.Explain)
		}
		return false
	})
}

func (d *decoder) tuples(out *[]TupleDTO) bool {
	if !d.consume('[') {
		return false
	}
	ts := []TupleDTO{}
	if !d.consume(']') {
		for {
			var t TupleDTO
			if !d.tuple(&t) {
				return false
			}
			ts = append(ts, t)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	*out = ts
	return true
}

func (d *decoder) tuple(out *TupleDTO) bool {
	var seen fields
	return d.object(func(name []byte) bool {
		switch string(name) {
		case "id":
			return seen.once(0) && d.int(&out.ID)
		case "key":
			return seen.once(1) && d.str(&out.Key)
		case "attrs":
			return seen.once(2) && d.strs(&out.Attrs)
		}
		return false
	})
}

// fields is the set of members an object has shown, so a repeated one
// (which encoding/json would merge) is left to encoding/json.
type fields uint16

func (f *fields) once(bit uint) bool {
	if *f&(1<<bit) != 0 {
		return false
	}
	*f |= 1 << bit
	return true
}

// object reads one object, handing each member's name to member, which
// reads the value. Names with escapes are not canonical.
func (d *decoder) object(member func(name []byte) bool) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		if !d.consume('"') {
			return false
		}
		start := d.i
		for d.i < len(d.b) && d.b[d.i] != '"' && d.b[d.i] != '\\' {
			d.i++
		}
		if d.i == len(d.b) || d.b[d.i] != '"' {
			return false
		}
		name := d.b[start:d.i]
		d.i++
		if !d.consume(':') || !member(name) {
			return false
		}
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// strs reads an array of strings; [] is an empty, non-nil slice, as
// encoding/json makes it.
func (d *decoder) strs(out *[]string) bool {
	if !d.consume('[') {
		return false
	}
	// Short arrays (a tuple's attributes) fill a stack buffer and are
	// copied out once, at their final length.
	var small [4]string
	ss := small[:0]
	if !d.consume(']') {
		for {
			var s string
			if !d.str(&s) {
				return false
			}
			ss = append(ss, s)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	*out = append(make([]string, 0, len(ss)), ss...)
	return true
}

// str reads a string: raw bytes must be valid UTF-8 and not control
// characters, and \u escapes must not be surrogates (encoding/json
// pairs or replaces those).
func (d *decoder) str(out *string) bool {
	if !d.consume('"') {
		return false
	}
	start := d.i
	var buf []byte // the unescaped bytes, once an escape is seen
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			if buf == nil {
				*out = string(d.b[start:d.i])
			} else {
				*out = string(buf)
				d.scratch = buf
			}
			d.i++
			return true
		case c == '\\':
			if buf == nil {
				buf = append(d.scratch[:0], d.b[start:d.i]...)
			}
			var ok bool
			if buf, ok = d.escape(buf); !ok {
				return false
			}
		case c < ' ':
			return false
		case c < utf8.RuneSelf:
			if buf != nil {
				buf = append(buf, c)
			}
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			if buf != nil {
				buf = append(buf, d.b[d.i:d.i+size]...)
			}
			d.i += size
		}
	}
	return false
}

// escape appends the escape sequence at i to buf.
func (d *decoder) escape(buf []byte) ([]byte, bool) {
	if d.i+1 >= len(d.b) {
		return buf, false
	}
	c := d.b[d.i+1]
	d.i += 2
	switch c {
	case '"', '\\', '/':
		return append(buf, c), true
	case 'b':
		return append(buf, '\b'), true
	case 'f':
		return append(buf, '\f'), true
	case 'n':
		return append(buf, '\n'), true
	case 'r':
		return append(buf, '\r'), true
	case 't':
		return append(buf, '\t'), true
	case 'u':
		if d.i+4 > len(d.b) {
			return buf, false
		}
		var r rune
		for _, h := range d.b[d.i : d.i+4] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return buf, false
			}
			r = r<<4 | rune(h)
		}
		if utf16.IsSurrogate(r) {
			return buf, false
		}
		d.i += 4
		return utf8.AppendRune(buf, r), true
	}
	return buf, false
}

// int reads a plain integer, without allocating: no fraction, exponent
// or leading zero, and within int's range.
func (d *decoder) int(out *int) bool {
	d.ws()
	i, neg := d.i, false
	if i < len(d.b) && d.b[i] == '-' {
		neg = true
		i++
	}
	start := i
	var n uint64
	for ; i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9'; i++ {
		if i-start == 19 { // 19 digits cannot overflow a uint64; 20 might
			return false
		}
		n = n*10 + uint64(d.b[i]-'0')
	}
	if i == start || d.b[start] == '0' && i-start > 1 {
		return false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	if n > limit {
		return false
	}
	*out = int(n)
	if neg {
		*out = -*out
	}
	d.i = i
	return true
}

// float reads a JSON number and converts it as encoding/json does.
func (d *decoder) float(out *float64) bool {
	d.ws()
	start := d.i
	i := start
	if i < len(d.b) && d.b[i] == '-' {
		i++
	}
	digits := func() int {
		j := i
		for i < len(d.b) && '0' <= d.b[i] && d.b[i] <= '9' {
			i++
		}
		return i - j
	}
	if n := digits(); n == 0 || d.b[i-n] == '0' && n > 1 {
		return false
	}
	if i < len(d.b) && d.b[i] == '.' {
		i++
		if digits() == 0 {
			return false
		}
	}
	if i < len(d.b) && (d.b[i] == 'e' || d.b[i] == 'E') {
		i++
		if i < len(d.b) && (d.b[i] == '+' || d.b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return false
		}
	}
	f, err := strconv.ParseFloat(string(d.b[start:i]), 64)
	if err != nil {
		return false
	}
	*out, d.i = f, i
	return true
}

func (d *decoder) bool(out *bool) bool {
	d.ws()
	switch {
	case bytes.HasPrefix(d.b[d.i:], []byte("true")):
		*out = true
		d.i += 4
	case bytes.HasPrefix(d.b[d.i:], []byte("false")):
		*out = false
		d.i += 5
	default:
		return false
	}
	return true
}

// consume skips whitespace and then reads c, if c is next.
func (d *decoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *decoder) end() bool {
	d.ws()
	return d.i == len(d.b)
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}
