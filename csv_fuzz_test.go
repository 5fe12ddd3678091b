package adaptivelink

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strings"
	"testing"

	"adaptivelink/internal/relation"
)

// fuzzCSVAlphabet holds the pieces the fuzzer composes keys and
// attributes from: the CSV metacharacters, CR/LF, leading whitespace,
// the writer's `\.` special case, multi-byte runes and invalid UTF-8.
var fuzzCSVAlphabet = []string{
	"a", "Z", "0", " ", "\t", ",", `"`, "\r", "\n", `\.`,
	"é", "日本", "Ж", "😀", "\xff", "\xc3", "\xe2\x82",
}

// fuzzRelation decodes data into a relation with 1–3 payload columns
// (so no record is a blank line, which csv.Reader skips) and up to 7
// rows of fields built from fuzzCSVAlphabet.
func fuzzRelation(data []byte) *relation.Relation {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	attrs := make([]string, 1+next()%3)
	for i := range attrs {
		attrs[i] = fmt.Sprintf("a%d", i)
	}
	rel := relation.New("fuzz", relation.NewSchema("key", attrs...))
	field := func() string {
		var sb strings.Builder
		for n := next() % 6; n > 0; n-- {
			sb.WriteString(fuzzCSVAlphabet[next()%len(fuzzCSVAlphabet)])
		}
		return sb.String()
	}
	for rows := next() % 8; rows > 0; rows-- {
		key := field()
		vals := make([]string, len(attrs))
		for i := range vals {
			vals[i] = field()
		}
		rel.Append(key, vals...)
	}
	return rel
}

// FuzzCSVRoundTrip checks the one CSV reader two ways. A relation
// decoded from the input and written by relation.WriteCSV loads back
// through LoadRelationCSV as equal tuples (up to csv's folding of CRLF
// inside a quoted field to LF). The input read as CSV itself either
// fails to load or loads tuples with one attribute per non-key header
// column; it never panics.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte("key,a0\nx,1\n\"y\r\nz\",\"\xff\"\n"))
	f.Add([]byte("a0,key,key\n1,2,3\n4,5\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rel := fuzzRelation(data)
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		back, _, err := LoadRelationCSV(&buf, "fuzz", "key")
		if err != nil {
			t.Fatalf("loading written relation: %v", err)
		}
		fold := func(s string) string { return strings.ReplaceAll(s, "\r\n", "\n") }
		if len(back) != rel.Len() {
			t.Fatalf("loaded %d tuples, wrote %d", len(back), rel.Len())
		}
		for i, got := range back {
			want := rel.At(i)
			want.Key = fold(want.Key)
			for j := range want.Attrs {
				want.Attrs[j] = fold(want.Attrs[j])
			}
			if !equalTuples([]Tuple{got}, []Tuple{want}) {
				t.Fatalf("tuple %d: loaded %#v, wrote %#v", i, got, want)
			}
		}

		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = -1
		header, herr := cr.Read()
		tuples, _, err := LoadRelationCSV(bytes.NewReader(data), "raw", "key")
		if err != nil {
			return
		}
		if herr != nil {
			t.Fatalf("loaded %d tuples from input whose header does not parse: %v", len(tuples), herr)
		}
		for _, tup := range tuples {
			if len(tup.Attrs) != len(header)-1 {
				t.Fatalf("tuple %d has %d attrs under a %d-column header", tup.ID, len(tup.Attrs), len(header))
			}
		}
	})
}
