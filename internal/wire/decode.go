package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// errTrailing refuses a body that holds more than one JSON value.
var errTrailing = errors.New("trailing data after the JSON value")

// Decode decodes a request body into dst, which must point to a zero
// value. A *LinkRequestDTO body in the canonical shape json.Marshal
// emits takes a one-pass scanner. That shape is one object with
// exact-case field names in any order and none repeated, strings with
// standard escapes and valid UTF-8, plain integers, and JSON whitespace
// between tokens. Every other body, and every other dst, goes to
// DecodeReader on the same bytes. So encoding/json defines what every
// body means and every error message: the scanner accepts only bodies
// that encoding/json reads as the same value. Create and upsert bodies
// are read by StreamCreate, and come here only when it refuses them.
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

// decodeFast is the one-pass scanner of link bodies. It reports false,
// leaving dst untouched, on any other dst and on any body outside the
// canonical shape.
func decodeFast(body []byte, dst any) bool {
	v, ok := dst.(*LinkRequestDTO)
	if !ok {
		return false
	}
	d := decoder{b: body}
	var out LinkRequestDTO
	if !d.presize().link(&out) || !d.end() {
		return false
	}
	*v = out
	return true
}

// decoder scans b from i. Each method reads one token or value and
// reports false on anything outside the canonical shape.
//
// Every string a link decoder returns is a slice of block, one
// allocation per body holding the decoded bytes only, so a value never
// aliases b and never pins more than its body's strings. Every string
// array (a tuple's attributes, a link's keys) is a capped slice of
// arena, one []string per body: presize counts both before the scan,
// and the tuples a body holds. An aliasing decoder (StreamCreate's)
// returns a string without escapes as a slice of b instead, and sizes
// block for the others only.
type decoder struct {
	b     []byte
	i     int
	alias bool

	block   strings.Builder
	arena   []string
	nTuples int
}

// presize sizes the block and the arena, and counts the tuples, in one
// pass over b (see measure) and returns d.
func (d *decoder) presize() *decoder {
	n, tuples, strs := measure(d.b, d.alias)
	d.block.Grow(n)
	if strs > 0 {
		d.arena = make([]string, 0, strs)
	}
	d.nTuples = tuples
	return d
}

// measure counts, in one pass over a body, what decoding it holds: the
// decoded bytes of its value strings (member names excluded) that take
// the block — with alias, only those holding an escape —, the objects
// that are array elements (tuples) and the strings that are array
// elements (attributes, link keys). It checks nothing; a body it
// miscounts is either refused by the scan or costs a regrowth, never a
// wrong value.
func measure(b []byte, alias bool) (n, objs, strs int) {
	// Without a backslash in the body, a string ends at the next quote
	// and decodes to its raw bytes.
	escapes := bytes.IndexByte(b, '\\') >= 0
	// inArray is a stack of one bit per open container, 1 for an array;
	// its low bit is the innermost container.
	var inArray uint64
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '[':
			inArray = inArray<<1 | 1
		case '{':
			objs += int(inArray & 1)
			inArray <<= 1
		case ']', '}':
			inArray >>= 1
		case '"':
			size, end := len(b)-i-1, len(b)
			if escapes {
				size, end = decodedLen(b, i+1)
			} else if q := bytes.IndexByte(b[i+1:], '"'); q >= 0 {
				size, end = q, i+1+q
			}
			escaped := size < end-i-1 // every escape decodes shorter
			i = end
			j := end + 1
			for j < len(b) && (b[j] == ' ' || b[j] == '\t' || b[j] == '\n' || b[j] == '\r') {
				j++
			}
			if j < len(b) && b[j] == ':' {
				continue // a member name
			}
			if escaped || !alias {
				n += size
			}
			strs += int(inArray & 1)
		}
	}
	return n, objs, strs
}

// decodedLen returns the decoded length of the string whose contents
// start at b[i], and the index of its closing quote (len(b) if none).
func decodedLen(b []byte, i int) (n, end int) {
	start, saved := i, 0 // saved: bytes escapes spell beyond what they decode to
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			return i - start - saved, i
		case '\\':
			if i+6 <= len(b) && b[i+1] == 'u' {
				r, _ := hex4(b[i+2 : i+6])
				saved += 6 - max(utf8.RuneLen(r), 1)
				i += 5
			} else {
				saved++
				i++
			}
		}
	}
	return max(i-start-saved, 0), i
}

// CreateStream is a create body read up to its tuples, which Tuples
// then decodes one at a time, so that their consumer can start on each
// as soon as it lands, on another goroutine if it likes. An upsert
// body, {"tuples":[...]}, is a create body with an empty head.
type CreateStream struct {
	// Head holds the body's members other than its tuples.
	Head CreateIndexRequest
	// N is the number of tuples the body holds.
	N int

	d    decoder
	seen fields // the head's members
}

// StreamCreate reads a create or upsert body up to its tuples. It takes
// bodies in the canonical shape (see Decode) whose last member is the
// tuples array, and reports false for any other, which the caller then
// reads whole with Decode. Its strings alias body wherever they hold no
// escape, so the caller keeps body unchanged while the head or any
// tuple is in use; it never writes to body, so Decode can still read a
// body it refuses.
func StreamCreate(body []byte) (*CreateStream, bool) {
	if !endsInArray(body) {
		return nil, false
	}
	c := &CreateStream{d: decoder{b: body, alias: true}}
	c.N = c.d.presize().nTuples
	d, h, seen := &c.d, &c.Head, &c.seen
	atTuples := false
	d.object(func(name []byte) bool {
		switch string(name) {
		case "tuples":
			atTuples = true
			return false // the value is Tuples' to read
		case "name":
			return seen.once(0) && d.str(&h.Name)
		case "q":
			return seen.once(1) && d.int(&h.Q)
		case "theta":
			return seen.once(2) && d.float(&h.Theta)
		case "measure":
			return seen.once(3) && d.str(&h.Measure)
		case "shards":
			return seen.once(4) && d.int(&h.Shards)
		case "profile":
			return seen.once(5) && d.str(&h.Profile)
		}
		return false
	})
	if !atTuples {
		return nil, false
	}
	return c, true
}

// TuplesOnly reports whether the tuples are the body's only member, as
// in an upsert body. A head whose members all hold zero values still
// has members: {"name":"","tuples":[]} is no upsert body.
func (c *CreateStream) TuplesOnly() bool { return c.seen == 0 }

// endsInArray reports whether the last member of the object b holds,
// if b holds one, has an array value: the tuples, in a create body.
func endsInArray(b []byte) bool {
	const ws = " \t\n\r"
	b = bytes.TrimRight(b, ws)
	if len(b) == 0 || b[len(b)-1] != '}' {
		return false
	}
	b = bytes.TrimRight(b[:len(b)-1], ws)
	return len(b) > 0 && b[len(b)-1] == ']'
}

// Tuples decodes the body's tuples in order, tuple i into *slot(i),
// which must be zero, calling publish(i+1) once it is complete, and
// then reads the rest of the body. It reports false, stopping where it
// is, on anything outside the canonical shape; Decode then decides what
// the body means. What it accepts, encoding/json reads as the same
// tuples. Call it once.
func (c *CreateStream) Tuples(slot func(i int) *TupleDTO, publish func(done int)) bool {
	d, n := &c.d, 0
	return d.array(func() bool {
		if n == c.N || !d.tuple(slot(n)) {
			return false
		}
		n++
		publish(n)
		return true
	}) && n == c.N && d.consume('}') && d.end()
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

// array reads an array, handing each element to elem to read.
func (d *decoder) array(elem func() bool) bool {
	if !d.consume('[') {
		return false
	}
	if d.consume(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.consume(']') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// strs reads an array of strings into the arena; [] is an empty,
// non-nil slice, as encoding/json makes it.
func (d *decoder) strs(out *[]string) bool {
	start := len(d.arena)
	if !d.array(func() bool {
		d.arena = append(d.arena, "")
		return d.str(&d.arena[len(d.arena)-1])
	}) {
		return false
	}
	if *out = d.arena[start:len(d.arena):len(d.arena)]; *out == nil {
		*out = []string{}
	}
	return true
}

// str reads a string into the block: raw bytes must be valid UTF-8 and
// not control characters, and \u escapes must not be surrogates
// (encoding/json pairs or replaces those). Runs of plain bytes are
// copied whole. An aliasing decoder returns a string without escapes
// as its raw bytes.
func (d *decoder) str(out *string) bool {
	if !d.consume('"') {
		return false
	}
	b, i := d.b, d.i
	start, run := d.block.Len(), i // run: the first byte not yet copied
	first := i
	for i < len(b) {
		c := b[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			if d.alias && run == first {
				*out = ""
				if i > first {
					*out = unsafe.String(&b[first], i-first)
				}
				d.i = i + 1
				return true
			}
			d.block.Write(b[run:i])
			*out = d.block.String()[start:]
			d.i = i + 1
			return true
		case c == '\\':
			d.block.Write(b[run:i])
			if d.i = i; !d.escape() {
				return false
			}
			i, run = d.i, d.i
		case c < ' ':
			return false
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return false
			}
			i += size
		}
	}
	return false
}

// plain marks the bytes a string holds as themselves: ASCII other than
// control characters, the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape decodes the escape sequence at i into the block.
func (d *decoder) escape() bool {
	if d.i+1 >= len(d.b) {
		return false
	}
	c := d.b[d.i+1]
	d.i += 2
	switch c {
	case '"', '\\', '/':
		d.block.WriteByte(c)
	case 'b':
		d.block.WriteByte('\b')
	case 'f':
		d.block.WriteByte('\f')
	case 'n':
		d.block.WriteByte('\n')
	case 'r':
		d.block.WriteByte('\r')
	case 't':
		d.block.WriteByte('\t')
	case 'u':
		if d.i+4 > len(d.b) {
			return false
		}
		r, ok := hex4(d.b[d.i : d.i+4])
		if !ok || utf16.IsSurrogate(r) {
			return false
		}
		d.i += 4
		d.block.WriteRune(r)
	default:
		return false
	}
	return true
}

// hex4 reads the four hex digits of a \u escape.
func hex4(h []byte) (r rune, ok bool) {
	for _, c := range h {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
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
