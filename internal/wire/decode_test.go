package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adaptivelink"
)

// canonicalBodies are json.Marshal encodings of each request type,
// shaped like the service's traffic.
func canonicalBodies(tb testing.TB) [][]byte {
	var out [][]byte
	for _, v := range []any{
		CreateIndexRequest{Name: "atlas", Q: 3, Theta: 0.75, Measure: "dice", Shards: 4, Profile: "standard",
			Tuples: []TupleDTO{{ID: 1, Key: "VIA ROMA", Attrs: []string{"45.1", "7.6"}}, {Key: "Forlì <&>  ", Attrs: []string{}}}},
		CreateIndexRequest{Name: "e", Tuples: []TupleDTO{}},
		UpsertRequest{Tuples: []TupleDTO{{ID: -9223372036854775808, Key: "a\"b\\c\n\t\x01"}, {ID: 9223372036854775807, Key: "日本"}}},
		LinkRequestDTO{Index: "atlas", Keys: []string{"LAGO DI COMO", "lago"}, Strategy: "adaptive", FutilityK: 2, TimeoutMillis: 1500, Explain: true},
		LinkRequestDTO{Index: "atlas", Key: "ROMA"},
	} {
		raw, err := json.Marshal(v)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// escapesBody spells every standard escape; json.Marshal emits only
// some of them, but the scanner accepts them all.
const escapesBody = `{"index":"\"\\\/\b\f\n\r\t\u00e9\u2028\u0000\uFFFD\u0041","keys":["\u65e5\u672c"]}`

// Every canonical body takes a one-pass path, and reads as
// encoding/json reads it: a link body the scanner, a create or upsert
// body the stream reader.
func TestDecodeCanonical(t *testing.T) {
	bodies := append(canonicalBodies(t), []byte(escapesBody), []byte(`{}`), []byte(`{"index":"x","explain":false}`),
		[]byte(`{"theta":-0.5e+3,"tuples":[]}`), []byte(`{"theta":1E-2,"q":-3,"tuples":[]}`))
	for _, body := range bodies {
		var fast LinkRequestDTO
		if !decodeFast(body, &fast) {
			if !streamsAsDecoded(t, body) {
				t.Errorf("neither the link scanner nor the stream reader took canonical %s", body)
			}
			continue
		}
		var std LinkRequestDTO
		if err := DecodeReader(bytes.NewReader(body), &std); err != nil {
			t.Fatalf("scanner accepted %s, encoding/json refused it: %v", body, err)
		}
		if !reflect.DeepEqual(fast, std) {
			t.Fatalf("%s reads as %+v, encoding/json reads %+v", body, fast, std)
		}
		if n, _, _ := measure(body, false); n != stringBytes(reflect.ValueOf(fast)) {
			t.Errorf("measure sized the block of %s at %d bytes, its strings hold %d", body, n, stringBytes(reflect.ValueOf(fast)))
		}
	}
	spaced := []byte(" {\n\t\"index\" : \"a\" ,\r\"keys\":[ \"x\" , \"y\" ] } \n")
	var req LinkRequestDTO
	if !decodeFast(spaced, &req) || req.Index != "a" || len(req.Keys) != 2 {
		t.Errorf("whitespace between tokens: %+v", req)
	}
}

// stringBytes sums the lengths of the strings v holds.
func stringBytes(v reflect.Value) (n int) {
	switch v.Kind() {
	case reflect.String:
		return v.Len()
	case reflect.Pointer:
		return stringBytes(v.Elem())
	case reflect.Struct:
		for i := range v.NumField() {
			n += stringBytes(v.Field(i))
		}
	case reflect.Slice:
		for i := range v.Len() {
			n += stringBytes(v.Index(i))
		}
	}
	return n
}

// Bodies outside the canonical shape go to encoding/json, which keeps
// its meaning and its error messages.
func TestDecodeFallback(t *testing.T) {
	for _, tc := range []struct {
		body    string
		wantErr string // "" when encoding/json accepts the body
	}{
		{`{"KEY":"a","index":"x"}`, ""},
		{`{"index":"x","index":"y"}`, ""},
		{`{"index":null,"keys":null}`, ""},
		{`{"index":"\ud83d\ude00"}`, ""},
		{`{"index":"\ud800"}`, ""},
		{"{\"index\":\"a\xffb\"}", ""},
		{`{"index":"x","timeout_ms":1.0}`, "cannot unmarshal number 1.0"},
		{`{"index":"x","futility_k":1e2}`, "cannot unmarshal number 1e2"},
		{`{"index":"x","timeout_ms":99999999999999999999}`, "cannot unmarshal number 99999999999999999999"},
		{`{"index":"x","timeout_ms":01}`, "invalid character '1'"},
		{`{"index":"x","nope":1}`, `unknown field "nope"`},
		{`{"ind\u0065x":"x"}`, ""},
		{`{"index":"x",}`, "invalid character '}'"},
		{`{"keys":"x"}`, "cannot unmarshal string"},
		{`{"keys":["a" "b"]}`, "after array element"},
		{"{\"index\":\"a\x01\"}", "in string literal"},
		{`{"index":"\x"}`, "in string escape code"},
		{`{"index":"\u12zz"}`, "hexadecimal character escape"},
		{`{"index":"\u12`, "unexpected EOF"},
		{`{"index":"\`, "unexpected EOF"},
		{`{"index":"abc`, "unexpected EOF"},
		{`{"index":"x","timeout_ms":-9223372036854775809}`, "cannot unmarshal number -9223372036854775809"},
		{`{"index":"x"} {}`, "trailing data after the JSON value"},
		{`{"index":"x"`, "unexpected EOF"},
		{``, "EOF"},
	} {
		var fast, std LinkRequestDTO
		if decodeFast([]byte(tc.body), &fast) {
			t.Errorf("scanner accepted non-canonical %q", tc.body)
		}
		err := Decode([]byte(tc.body), &fast)
		stdErr := DecodeReader(strings.NewReader(tc.body), &std)
		if fmt.Sprint(err) != fmt.Sprint(stdErr) || !reflect.DeepEqual(fast, std) {
			t.Errorf("Decode(%q) = %+v, %v; encoding/json gives %+v, %v", tc.body, fast, err, std, stdErr)
		}
		if (err == nil) != (tc.wantErr == "") || err != nil && !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("Decode(%q) error %v, want one containing %q", tc.body, err, tc.wantErr)
		}
	}
}

// FuzzDecodeRequest: whenever the one-pass scanner accepts a link body,
// encoding/json accepts it too and reads the same value; a body it
// refuses leaves the value untouched. The decoded link request owns its
// strings: overwriting every byte of the body afterwards leaves it
// equal to encoding/json's reading. The stream reader, which reads
// create and upsert bodies, reads what encoding/json reads (see
// streamsAsDecoded); its strings may alias the body, which it never
// writes.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range canonicalBodies(f) {
		f.Add(body)
	}
	for _, s := range []string{escapesBody, `{"id":1.0}`, `{"tuples":[{"id":01}]}`, `{"KEY":"a"}`, `{"keys":[]}`,
		`{"tuples":null}`, `{"index":"\ud83d\ude00"}`, "{\"key\":\"\xff\"}", `{"theta":1e400}`, `{"explain":tru}`,
		`{"name":"","tuples":[]}`, `{"tuples":[{"key":"\u00e9"}]}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fast := new(LinkRequestDTO)
		buf := bytes.Clone(body)
		if decodeFast(buf, fast) {
			std := new(LinkRequestDTO)
			if err := DecodeReader(bytes.NewReader(body), std); err != nil {
				t.Fatalf("scanner accepted %q, encoding/json refused it: %v", body, err)
			}
			if !reflect.DeepEqual(fast, std) {
				t.Fatalf("%q reads as %#v, encoding/json reads %#v", body, fast, std)
			}
			for i := range buf {
				buf[i] = '#'
			}
			if !reflect.DeepEqual(fast, std) {
				t.Fatalf("%q read as %#v, which changed to %#v when the body was overwritten", body, std, fast)
			}
		} else if !reflect.DeepEqual(fast, new(LinkRequestDTO)) {
			t.Fatalf("scanner refused %q but wrote %#v", body, fast)
		}
		streamsAsDecoded(t, body)
	})
}

// streamsAsDecoded reads body through the stream reader, as the create
// and upsert handlers do, and reports whether it took the body. What it
// takes, encoding/json reads as the same *CreateIndexRequest, and, when
// the tuples are the body's only member, as the same *UpsertRequest;
// what it refuses is left to encoding/json. It must leave the body's
// bytes as they were: Decode reads a body it refuses partway.
func streamsAsDecoded(t *testing.T, body []byte) bool {
	t.Helper()
	buf := bytes.Clone(body)
	got, tuplesOnly, ok := streamRequest(t, buf)
	if !bytes.Equal(buf, body) {
		t.Fatalf("stream reader wrote to %q, leaving %q", body, buf)
	}
	if !ok {
		return false
	}
	var std CreateIndexRequest
	if err := DecodeReader(bytes.NewReader(body), &std); err != nil {
		t.Fatalf("stream reader accepted %q, encoding/json refused it: %v", body, err)
	}
	if !reflect.DeepEqual(got, &std) {
		t.Fatalf("stream reader reads %q as %#v, encoding/json reads %#v", body, got, std)
	}
	if tuplesOnly {
		var up UpsertRequest
		if err := DecodeReader(bytes.NewReader(body), &up); err != nil {
			t.Fatalf("stream reader accepted upsert %q, encoding/json refused it: %v", body, err)
		}
		if !reflect.DeepEqual(got.Tuples, up.Tuples) {
			t.Fatalf("stream reader reads upsert %q as %#v, encoding/json reads %#v", body, got.Tuples, up.Tuples)
		}
	}
	return true
}

// streamRequest decodes body with StreamCreate and Tuples, reporting
// false if either refuses it, and whether the tuples are the body's
// only member; it checks that Tuples publishes every tuple once, in
// order.
func streamRequest(t testing.TB, body []byte) (req *CreateIndexRequest, tuplesOnly, ok bool) {
	t.Helper()
	cs, ok := StreamCreate(body)
	if !ok {
		return nil, false, false
	}
	rows, published := make([]TupleDTO, cs.N), 0
	if !cs.Tuples(func(i int) *TupleDTO { return &rows[i] }, func(done int) {
		if done != published+1 {
			t.Fatalf("%q: tuple %d published after %d", body, done, published)
		}
		published = done
	}) {
		return nil, false, false
	}
	if published != cs.N {
		t.Fatalf("%q: %d of %d tuples published", body, published, cs.N)
	}
	req = &cs.Head
	req.Tuples = rows
	return req, cs.TuplesOnly(), true
}

// A create or upsert body streams when its tuples come last, and reads
// as Decode reads it; any other body is left to Decode, before or during
// its tuples. An upsert body is one whose tuples are its only member.
func TestStreamCreate(t *testing.T) {
	big, up := benchTupleBodies(t, 1000, 100)
	for _, tc := range []struct {
		body       string
		streams    bool
		tuplesOnly bool
	}{
		{string(canonicalBodies(t)[0]), true, false},
		{string(canonicalBodies(t)[1]), true, false},
		{string(canonicalBodies(t)[2]), true, true},
		{string(big), true, false},
		{string(up), true, true},
		{`{"tuples":[]}`, true, true},
		{` { "tuples" : [ {"id":3,"key":"a"} ] } `, true, true},
		{`{"name":"","tuples":[]}`, true, false},
		{`{"q":0,"tuples":[{"key":"a"}]}`, true, false},
		{" {\n \"name\" : \"s\",\r\"tuples\":[ {\"key\":\"a\"} ,{\"key\":\"b\",\"attrs\":[\"x\"]} ]\t}\n", true, false},
		{`{"name":"k","tuples":[{"key":"\"\\\/\u00e9 Forlì 日本"}]}`, true, false},
		{`{"tuples":[{"key":"a"}],"name":"late"}`, false, false},
		{`{"name":"n","tuples":null}`, false, false},
		{`{"name":"n","tuples":[{"key":"a"}],"tuples":[{"key":"b"}]}`, false, false},
		{`{"name":"n","tuples":[{"key":"a"},{"KEY":"b"}]}`, false, false},
		{`{"name":"n","tuples":[{"key":"a"},{"key":"\ud83d\ude00"}]}`, false, false},
		{`{"name":"n","tuples":[{"key":"a"},{"key":"b"]}`, false, false},
		{`{"name":"n","tuples":[{"key":"a"}]} {"x":[]}`, false, false},
		{`{"NAME":"n","tuples":[]}`, false, false},
		{`[]}`, false, false},
		{`{"tuples":[]}]`, false, false},
		{`{"TUPLES":[{"key":"a"}]}`, false, false},
		{`{"theta":01,"tuples":[]}`, false, false},
		{`{"theta":1.,"tuples":[]}`, false, false},
		{`{"theta":1e,"tuples":[]}`, false, false},
		{`{"theta":1e400,"tuples":[]}`, false, false},
	} {
		_, tuplesOnly, ok := streamRequest(t, []byte(tc.body))
		if ok != tc.streams || tuplesOnly != tc.tuplesOnly {
			t.Errorf("%.60q: streamed %v, tuples only %v; want %v, %v", tc.body, ok, tuplesOnly, tc.streams, tc.tuplesOnly)
		}
		streamsAsDecoded(t, []byte(tc.body))
		var got, std CreateIndexRequest
		err, stdErr := Decode([]byte(tc.body), &got), DecodeReader(strings.NewReader(tc.body), &std)
		if fmt.Sprint(err) != fmt.Sprint(stdErr) || !reflect.DeepEqual(got, std) {
			t.Errorf("Decode(%.60q) = %+v, %v; encoding/json gives %+v, %v", tc.body, got, err, std, stdErr)
		}
	}
}

// benchLinkBody is a canonical 64-key link request of datagen keys.
func benchLinkBody(tb testing.TB) []byte {
	data, err := adaptivelink.GenerateTestData(42, 64, 64, adaptivelink.PatternUniform, 0.2, false)
	if err != nil {
		tb.Fatal(err)
	}
	req := LinkRequestDTO{Index: "bench", Strategy: "exact"}
	for _, t := range data.Child {
		req.Keys = append(req.Keys, t.Key)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// benchTuplesBody is a canonical create request of n datagen tuples
// (two attributes each), and an upsert of its first m with one.
func benchTupleBodies(tb testing.TB, n, m int) (create, upsert []byte) {
	data, err := adaptivelink.GenerateTestData(42, n, 1, adaptivelink.PatternUniform, 0, false)
	if err != nil {
		tb.Fatal(err)
	}
	req := CreateIndexRequest{Name: "bench", Q: 3, Theta: 0.75, Shards: 4, Profile: "standard"}
	up := UpsertRequest{}
	for i, t := range data.Parent {
		req.Tuples = append(req.Tuples, TupleDTO{ID: t.ID, Key: t.Key, Attrs: t.Attrs})
		if i < m {
			up.Tuples = append(up.Tuples, TupleDTO{ID: 1_000_000 + i, Key: t.Key, Attrs: []string{"v17"}})
		}
	}
	if create, err = json.Marshal(req); err != nil {
		tb.Fatal(err)
	}
	if upsert, err = json.Marshal(up); err != nil {
		tb.Fatal(err)
	}
	return create, upsert
}

// BenchmarkDecodeCreate20k times the stream reader over a 20k-tuple
// create body, the rows included, as the create handler reads it.
func BenchmarkDecodeCreate20k(b *testing.B) {
	body, _ := benchTupleBodies(b, 20000, 0)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !streamRows(body) {
			b.Fatal("canonical create body refused")
		}
	}
}

func BenchmarkDecodeLink64(b *testing.B) {
	body := benchLinkBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Decode(body, new(LinkRequestDTO)); err != nil {
			b.Fatal(err)
		}
	}
}

// streamRows reads body as the create and upsert handlers read it:
// StreamCreate, rows sized for its tuples, and Tuples decoding into
// them.
func streamRows(body []byte) bool {
	cs, ok := StreamCreate(body)
	if !ok {
		return false
	}
	rows := make([]TupleDTO, cs.N)
	return cs.Tuples(func(i int) *TupleDTO { return &rows[i] }, func(int) {})
}

// A 64-key link body: the string block, the key slice and the request
// itself, however many keys it holds.
func TestDecodeLink64Alloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	const pin = 3
	body := benchLinkBody(t)
	if !decodeFast(body, new(LinkRequestDTO)) {
		t.Fatalf("canonical link body refused: %.80s", body)
	}
	fast := testing.AllocsPerRun(20, func() { _ = Decode(body, new(LinkRequestDTO)) })
	std := testing.AllocsPerRun(20, func() { _ = DecodeReader(bytes.NewReader(body), new(LinkRequestDTO)) })
	t.Logf("%d-byte link body: %.0f allocs, encoding/json %.0f", len(body), fast, std)
	if fast > pin || fast >= std {
		t.Errorf("64-key link decode: %.0f allocs, want at most %d and fewer than encoding/json's %.0f", fast, pin, std)
	}
}

// allocsPerStream counts the allocations of streamRows over body, which
// the stream reader must take.
func allocsPerStream(t *testing.T, body []byte, runs int) float64 {
	t.Helper()
	if !streamRows(body) {
		t.Fatalf("canonical body refused: %.80s", body)
	}
	return testing.AllocsPerRun(runs, func() { streamRows(body) })
}

// A 16-tuple upsert body, read into rows as the upsert handler reads
// it: the stream, the attribute arena and the rows. The strings alias
// the body and the integers parse without allocating.
func TestDecodeUpsert16Alloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	const pin = 3
	_, body := benchTupleBodies(t, 16, 16)
	fast := allocsPerStream(t, body, 20)
	std := testing.AllocsPerRun(20, func() { _ = DecodeReader(bytes.NewReader(body), new(UpsertRequest)) })
	t.Logf("%d-byte upsert body: %.0f allocs, encoding/json %.0f", len(body), fast, std)
	if fast > pin || fast > std {
		t.Errorf("16-tuple upsert decode: %.0f allocs, want at most %d and no more than encoding/json's %.0f", fast, pin, std)
	}
}

// A create body streams in as many allocations at 20k tuples as at 1k:
// nothing is allocated per string or per tuple. So does one whose every
// key holds an escape, which the string block, sized for the escaped
// strings alone, takes.
func TestDecodeCreateAllocFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	for _, escaped := range []bool{false, true} {
		var allocs [2]float64
		for i, n := range []int{1000, 20000} {
			body, _ := benchTupleBodies(t, n, 0)
			if escaped {
				body = bytes.ReplaceAll(body, []byte(`"key":"`), []byte(`"key":"\u0026`))
			}
			allocs[i] = allocsPerStream(t, body, 5)
			t.Logf("%d-tuple create body, escaped keys %v: %.0f allocs", n, escaped, allocs[i])
		}
		if allocs[0] != allocs[1] {
			t.Errorf("create decode, escaped keys %v: %.0f allocs at 1k tuples, %.0f at 20k; want equal counts", escaped, allocs[0], allocs[1])
		}
	}
}
