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

// requestTypes are the bodies Decode reads in one pass into a value.
// The third, *UpsertRows, decodes into its caller's rows; FuzzDecodeRequest
// holds it to *UpsertRequest, which encoding/json reads.
var requestTypes = []struct {
	name string
	new  func() any
}{
	{"create", func() any { return new(CreateIndexRequest) }},
	{"link", func() any { return new(LinkRequestDTO) }},
}

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

// Every canonical body takes the one-pass path, and reads as
// encoding/json reads it.
func TestDecodeCanonical(t *testing.T) {
	for _, body := range append(canonicalBodies(t), []byte(escapesBody)) {
		accepted := false
		for _, rt := range requestTypes {
			fast, std := rt.new(), rt.new()
			if !decodeFast(body, fast) {
				continue
			}
			accepted = true
			if err := DecodeReader(bytes.NewReader(body), std); err != nil {
				t.Fatalf("%s: scanner accepted %s, encoding/json refused it: %v", rt.name, body, err)
			}
			if !reflect.DeepEqual(fast, std) {
				t.Fatalf("%s: %s reads as %+v, encoding/json reads %+v", rt.name, body, fast, std)
			}
			if n, _, _ := measure(body); n != stringBytes(reflect.ValueOf(fast)) {
				t.Errorf("%s: measure sized the block of %s at %d bytes, its strings hold %d", rt.name, body, n, stringBytes(reflect.ValueOf(fast)))
			}
		}
		if !accepted {
			t.Errorf("no request type took the one-pass path for canonical %s", body)
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

// FuzzDecodeRequest: whenever the one-pass scanner accepts a body, as
// any of the three request types, encoding/json accepts it too and
// reads the same value; a body it refuses leaves the value untouched.
// The decoded value owns its strings: overwriting every byte of the
// body afterwards leaves it equal to encoding/json's reading. The
// streamed create's strings may alias the body instead, which it never
// writes.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range canonicalBodies(f) {
		f.Add(body)
	}
	for _, s := range []string{escapesBody, `{"id":1.0}`, `{"tuples":[{"id":01}]}`, `{"KEY":"a"}`, `{"keys":[]}`,
		`{"tuples":null}`, `{"index":"\ud83d\ude00"}`, "{\"key\":\"\xff\"}", `{"theta":1e400}`, `{"explain":tru}`} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, rt := range requestTypes {
			fast := rt.new()
			buf := bytes.Clone(body)
			if !decodeFast(buf, fast) {
				if !reflect.DeepEqual(fast, rt.new()) {
					t.Fatalf("%s: scanner refused %q but wrote %#v", rt.name, body, fast)
				}
				continue
			}
			std := rt.new()
			if err := DecodeReader(bytes.NewReader(body), std); err != nil {
				t.Fatalf("%s: scanner accepted %q, encoding/json refused it: %v", rt.name, body, err)
			}
			if !reflect.DeepEqual(fast, std) {
				t.Fatalf("%s: %q reads as %#v, encoding/json reads %#v", rt.name, body, fast, std)
			}
			for i := range buf {
				buf[i] = '#'
			}
			if !reflect.DeepEqual(fast, std) {
				t.Fatalf("%s: %q read as %#v, which changed to %#v when the body was overwritten", rt.name, body, std, fast)
			}
		}
		// Upsert rows decode as an *UpsertRequest does, scanner or not.
		var std UpsertRequest
		stdErr := Decode(body, &std)
		rows, rowsErr := upsertRows(body)
		if fmt.Sprint(rowsErr) != fmt.Sprint(stdErr) {
			t.Fatalf("upsert rows of %q: %v, *UpsertRequest: %v", body, rowsErr, stdErr)
		}
		if stdErr == nil && (len(rows) != len(std.Tuples) || len(rows) > 0 && !reflect.DeepEqual(rows, std.Tuples)) {
			t.Fatalf("upsert rows of %q read %#v, *UpsertRequest reads %#v", body, rows, std.Tuples)
		}
		// The streamed create decoder reads what Decode reads, and leaves
		// the body, which its strings may alias, as it was: Decode reads
		// a body it refuses partway.
		buf := bytes.Clone(body)
		got, ok := streamCreate(t, buf)
		if !bytes.Equal(buf, body) {
			t.Fatalf("streamed create wrote to %q, leaving %q", body, buf)
		}
		if ok {
			var std CreateIndexRequest
			if err := DecodeReader(bytes.NewReader(body), &std); err != nil {
				t.Fatalf("streamed create accepted %q, encoding/json refused it: %v", body, err)
			}
			if !reflect.DeepEqual(got, &std) {
				t.Fatalf("streamed create reads %q as %#v, encoding/json reads %#v", body, got, std)
			}
		}
	})
}

// upsertRows decodes body into UpsertRows, returning the rows and nil,
// or Decode's error; a scan given up partway may make the rows again,
// which must then hold only what the second pass wrote.
func upsertRows(body []byte) ([]TupleDTO, error) {
	var rows []TupleDTO
	dst := UpsertRows{
		Make: func(n int) { rows = make([]TupleDTO, n) },
		Slot: func(i int) *TupleDTO { return &rows[i] },
	}
	if err := Decode(bytes.Clone(body), &dst); err != nil {
		return nil, err
	}
	return rows, nil
}

// streamCreate decodes body with StreamCreate and Tuples, reporting
// false if either refuses it, and checks that Tuples publishes every
// tuple once, in order.
func streamCreate(t *testing.T, body []byte) (*CreateIndexRequest, bool) {
	t.Helper()
	cs, ok := StreamCreate(body)
	if !ok {
		return nil, false
	}
	rows, published := make([]TupleDTO, cs.N), 0
	if !cs.Tuples(func(i int) *TupleDTO { return &rows[i] }, func(done int) {
		if done != published+1 {
			t.Fatalf("%q: tuple %d published after %d", body, done, published)
		}
		published = done
	}) {
		return nil, false
	}
	if published != cs.N {
		t.Fatalf("%q: %d of %d tuples published", body, published, cs.N)
	}
	req := cs.Head
	req.Tuples = rows
	return &req, true
}

// A create body streams when its tuples come last, and reads as Decode
// reads it; any other body is left to Decode, before or during its
// tuples.
func TestStreamCreate(t *testing.T) {
	big, _ := benchTupleBodies(t, 1000, 0)
	for _, tc := range []struct {
		body    string
		streams bool
	}{
		{string(canonicalBodies(t)[0]), true},
		{string(canonicalBodies(t)[1]), true},
		{string(big), true},
		{" {\n \"name\" : \"s\",\r\"tuples\":[ {\"key\":\"a\"} ,{\"key\":\"b\",\"attrs\":[\"x\"]} ]\t}\n", true},
		{`{"name":"k","tuples":[{"key":"\"\\\/\u00e9 Forlì 日本"}]}`, true},
		{`{"tuples":[{"key":"a"}],"name":"late"}`, false},
		{`{"name":"n","tuples":null}`, false},
		{`{"name":"n","tuples":[{"key":"a"}],"tuples":[{"key":"b"}]}`, false},
		{`{"name":"n","tuples":[{"key":"a"},{"KEY":"b"}]}`, false},
		{`{"name":"n","tuples":[{"key":"a"},{"key":"\ud83d\ude00"}]}`, false},
		{`{"name":"n","tuples":[{"key":"a"},{"key":"b"]}`, false},
		{`{"name":"n","tuples":[{"key":"a"}]} {"x":[]}`, false},
		{`{"NAME":"n","tuples":[]}`, false},
		{`[]}`, false},
	} {
		got, ok := streamCreate(t, []byte(tc.body))
		if ok != tc.streams {
			t.Errorf("%.60q: streamed %v, want %v", tc.body, ok, tc.streams)
			continue
		}
		var want CreateIndexRequest
		if err := Decode([]byte(tc.body), &want); ok && (err != nil || !reflect.DeepEqual(got, &want)) {
			t.Errorf("%.60q: streams as %+v, Decode reads %+v (%v)", tc.body, got, want, err)
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

func BenchmarkDecodeCreate20k(b *testing.B) {
	body, _ := benchTupleBodies(b, 20000, 0)
	benchmarkDecode(b, body, func() any { return new(CreateIndexRequest) })
}

func BenchmarkDecodeLink64(b *testing.B) {
	benchmarkDecode(b, benchLinkBody(b), func() any { return new(LinkRequestDTO) })
}

func benchmarkDecode(b *testing.B, body []byte, dst func() any) {
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Decode(body, dst()); err != nil {
			b.Fatal(err)
		}
	}
}

// allocsPerDecode counts the allocations of decoding body into a fresh
// value, with the one-pass path and with encoding/json.
func allocsPerDecode(t *testing.T, body []byte, dst func() any) (fast, std float64) {
	t.Helper()
	if !decodeFast(body, dst()) {
		t.Fatalf("canonical body refused: %.80s", body)
	}
	fast = testing.AllocsPerRun(20, func() { _ = Decode(body, dst()) })
	std = testing.AllocsPerRun(20, func() { _ = DecodeReader(bytes.NewReader(body), dst()) })
	t.Logf("%d-byte body: %.0f allocs, encoding/json %.0f", len(body), fast, std)
	return fast, std
}

// A 64-key link body: the string block, the key slice and the request
// itself, however many keys it holds.
func TestDecodeLink64Alloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	const pin = 3
	fast, std := allocsPerDecode(t, benchLinkBody(t), func() any { return new(LinkRequestDTO) })
	if fast > pin || fast >= std {
		t.Errorf("64-key link decode: %.0f allocs, want at most %d and fewer than encoding/json's %.0f", fast, pin, std)
	}
}

// A 16-tuple upsert body, decoded into rows as the upsert handler
// decodes it: the string block, the attribute arena and the rows. The
// integers parse without allocating.
func TestDecodeUpsert16Alloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	const pin = 4
	_, body := benchTupleBodies(t, 16, 16)
	var tuples []TupleDTO
	rows := &UpsertRows{
		Make: func(n int) { tuples = make([]TupleDTO, n) },
		Slot: func(i int) *TupleDTO { return &tuples[i] },
	}
	fast, std := allocsPerDecode(t, body, func() any { return rows })
	if fast > pin || fast > std {
		t.Errorf("16-tuple upsert decode: %.0f allocs, want at most %d and no more than encoding/json's %.0f", fast, pin, std)
	}
}

// A create body decodes in as many allocations at 20k tuples as at 1k:
// nothing is allocated per string or per tuple.
func TestDecodeCreateAllocFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race; make alloc enforces this pin")
	}
	var allocs [2]float64
	for i, n := range []int{1000, 20000} {
		body, _ := benchTupleBodies(t, n, 0)
		if !decodeFast(body, new(CreateIndexRequest)) {
			t.Fatalf("canonical %d-tuple create body refused", n)
		}
		allocs[i] = testing.AllocsPerRun(5, func() { _ = Decode(body, new(CreateIndexRequest)) })
		t.Logf("%d-tuple create body: %.0f allocs", n, allocs[i])
	}
	if allocs[0] != allocs[1] {
		t.Errorf("create decode: %.0f allocs at 1k tuples, %.0f at 20k; want equal counts", allocs[0], allocs[1])
	}
}
