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

// EncodeUpsert writes exactly the bytes json.Marshal writes, into a
// buffer sized exactly when no string needs escaping, and the bytes
// take the one-pass decoder back to the same tuples.
func TestEncodeUpsert(t *testing.T) {
	cases := [][]TupleDTO{
		nil,
		{},
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
		got := EncodeUpsert(tuples)
		want, err := json.Marshal(UpsertRequest{Tuples: tuples})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("EncodeUpsert(%q)\n = %s\nwant %s", tuples, got, want)
		}
	}
	plain := cases[4]
	if got := EncodeUpsert(plain); len(got) != cap(got) {
		t.Errorf("EncodeUpsert of unescaped strings: %d bytes in a %d-byte buffer, want it sized exactly", len(got), cap(got))
	}
	var back UpsertRequest
	if !decodeFast(EncodeUpsert(plain), &back) || !reflect.DeepEqual(back.Tuples, normalizeAttrs(plain)) {
		t.Errorf("EncodeUpsert(%q) decodes back as %q", plain, back.Tuples)
	}
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
// EncodeUpsert's bytes equal json.Marshal's, and a non-nil batch takes
// the one-pass decoder.
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
		switch shape >> 6 {
		case 1:
			tuples = tuples[:0]
		case 2:
			tuples = nil
		}
		got := EncodeUpsert(tuples)
		want, err := json.Marshal(UpsertRequest{Tuples: tuples})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("EncodeUpsert(%q)\n = %s\nwant %s", tuples, got, want)
		}
		if tuples != nil && !decodeFast(got, new(UpsertRequest)) {
			t.Fatalf("one-pass decoder refused EncodeUpsert's %s", got)
		}
	})
}
