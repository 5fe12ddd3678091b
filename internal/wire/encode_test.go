package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// encodeSeeds are strings every escape rule of encoding/json touches:
// HTML characters, control characters (named and \u00XX), invalid
// UTF-8, U+2028 and U+2029, DEL and multi-byte runes left raw.
var encodeSeeds = []string{
	"", "VIA ROMA 12", "<a href=\"x\">&amp;</a>", "tab\there\nnew\rline\b\f",
	"\x00\x01\x1f\x7f", "bad \xff\xfe utf8 \xc3", "line\u2028para\u2029end", `back\slash "quoted"`,
	"Forl\u00ec \u65e5\u672c \U0001F600", "/slash/",
}

// encodeUpsert is the body an UpsertEncoder writes for tuples, and the
// bytes json.Marshal writes for them as a non-nil slice.
func encodeUpsert(tuples []TupleDTO) (got, want []byte, err error) {
	var e UpsertEncoder
	e.Grow(8) // room reserved at any point changes nothing
	for i, t := range tuples {
		e.Add(t)
		e.Grow(i % 3 * 16)
	}
	want, err = json.Marshal(UpsertRequest{Tuples: append([]TupleDTO{}, tuples...)})
	return e.Bytes(), want, err
}

// UpsertEncoder writes exactly the bytes json.Marshal writes, and they
// take the stream reader back to the same tuples.
func TestEncodeUpsert(t *testing.T) {
	cases := [][]TupleDTO{
		nil,
		{{Key: "a"}},
		{{ID: -9223372036854775808, Key: "min", Attrs: []string{}}, {ID: 9223372036854775807, Key: "max", Attrs: []string{"x"}}},
		{{ID: 7, Key: "plain key", Attrs: []string{"45.1", "7.6", ""}}, {ID: 1, Key: ""}},
	}
	var seeded []TupleDTO
	for i, s := range encodeSeeds {
		seeded = append(seeded, TupleDTO{ID: i, Key: s, Attrs: encodeSeeds[i:]})
	}
	cases = append(cases, seeded)
	for _, tuples := range cases {
		got, want, err := encodeUpsert(tuples)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("UpsertEncoder(%q)\n = %s\nwant %s", tuples, got, want)
		}
	}
	plain := cases[3]
	body, _, _ := encodeUpsert(plain)
	if back, ok := scanRows(body); !ok || !reflect.DeepEqual(back, normalizeAttrs(plain)) {
		t.Errorf("UpsertEncoder(%q) decodes back as %q", plain, back)
	}
}

// scanRows decodes an upsert body into rows with the stream reader, as
// the upsert handler does, reporting false if the reader refuses it or
// the body has a member other than its tuples.
func scanRows(body []byte) ([]TupleDTO, bool) {
	cs, ok := StreamCreate(body)
	if !ok || !cs.TuplesOnly() {
		return nil, false
	}
	rows := make([]TupleDTO, cs.N)
	return rows, cs.Tuples(func(i int) *TupleDTO { return &rows[i] }, func(int) {})
}

// normalizeAttrs is tuples as they come back from the wire: an empty
// attribute list is omitted, so it reads as nil.
func normalizeAttrs(tuples []TupleDTO) []TupleDTO {
	out := append([]TupleDTO(nil), tuples...)
	for i := range out {
		if len(out[i].Attrs) == 0 {
			out[i].Attrs = nil
		}
	}
	return out
}

// FuzzEncodeUpsert: for arbitrary ids, keys and attributes (invalid
// UTF-8, HTML and control characters, U+2028/U+2029 included),
// UpsertEncoder's bytes equal json.Marshal's, and they take the
// stream reader.
func FuzzEncodeUpsert(f *testing.F) {
	for i, s := range encodeSeeds {
		f.Add(i*1_000_003-7, s, strings.Join(encodeSeeds[i:], ","), uint8(i))
	}
	f.Fuzz(func(t *testing.T, id int, key, attrs string, shape uint8) {
		var as []string
		switch shape % 3 {
		case 1:
			as = []string{}
		case 2:
			as = strings.Split(attrs, ",")
		}
		tuples := []TupleDTO{{ID: id, Key: key, Attrs: as}, {Key: attrs}, {ID: int(shape), Key: key + attrs}}
		if shape>>6 == 1 {
			tuples = tuples[:0]
		}
		got, want, err := encodeUpsert(tuples)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("UpsertEncoder(%q)\n = %s\nwant %s", tuples, got, want)
		}
		if _, ok := scanRows(got); !ok {
			t.Fatalf("stream reader refused UpsertEncoder's %s", got)
		}
	})
}
