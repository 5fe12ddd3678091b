package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// plainDecode is how the service read request bodies before the
// one-pass decoder: encoding/json streaming from the capped body,
// unknown fields and trailing data refused.
func plainDecode(body io.Reader, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(body), maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, tok := dec.Token(); tok != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	return err
}

// repeatReader yields unit n times.
type repeatReader struct {
	unit string
	n    int
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	w := 0
	for w < len(p) && r.n > 0 {
		c := copy(p[w:], r.unit[r.off:])
		w += c
		if r.off += c; r.off == len(r.unit) {
			r.off = 0
			r.n--
		}
	}
	if w == 0 {
		return 0, io.EOF
	}
	return w, nil
}

// overLimit is a body of prefix, units past maxBodyBytes and suffix,
// generated as it is read.
func overLimit(prefix, unit, suffix string) (io.Reader, int64) {
	n := maxBodyBytes/len(unit) + 2
	size := int64(len(prefix) + n*len(unit) + len(suffix))
	return io.MultiReader(strings.NewReader(prefix), &repeatReader{unit: unit, n: n}, strings.NewReader(suffix)), size
}

// Create, upsert and link bodies outside the one-pass decoder's
// canonical shape get, at the HTTP boundary, the status, error code,
// message and resulting index contents that plain encoding/json gives
// them. The handler under test gets each body as sent; the reference
// handler gets the error plainDecode reports, or the canonical
// re-encoding of what plainDecode read.
func TestHTTPBodyDecodeParity(t *testing.T) {
	got, ref := New(Config{Workers: 2}), New(Config{Workers: 2})
	t.Cleanup(got.Close)
	t.Cleanup(ref.Close)
	gotH, refH := NewHandler(got), NewHandler(ref)
	serve := func(h http.Handler, method, path string, body io.Reader, size int64) (int, []byte) {
		req := httptest.NewRequest(method, path, body)
		if size >= 0 {
			req.ContentLength = size
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	for _, h := range []http.Handler{gotH, refH} {
		raw, _ := json.Marshal(CreateIndexRequest{Name: "atlas", Tuples: []TupleDTO{
			{ID: 0, Key: "via monte bianco nord 12", Attrs: []string{"alpine"}},
			{ID: 1, Key: "lago di como est"},
		}})
		if code, body := serve(h, "POST", "/v1/indexes", bytes.NewReader(raw), -1); code != http.StatusCreated {
			t.Fatalf("create atlas: %d %s", code, body)
		}
	}

	// Tuple arrays, shared by create and upsert bodies.
	tupleArrays := []string{
		`[{"KEY":"lago maggiore","ID":7,"Attrs":["a"]}]`,
		`[{"key":"a","key":"lago b","id":1,"id":2}]`,
		`null`,
		`[{"key":"valle x","attrs":null}]`,
		`[{"key":"valle y","attrs":[]}]`,
		`[{"key":"citt\u00e0 alta"}]`,
		`[{"key":"\ud83d\ude00 mare"}]`,
		`[{"key":"a\udc00b"}]`,
		"[{\"key\":\"a\xffb\"}]",
		`[{"id":1.0,"key":"a"}]`,
		`[{"id":1e2,"key":"a"}]`,
		`[{"id":9223372036854775808,"key":"a"}]`,
		`[{"id":-9223372036854775808,"key":"min"}]`,
		`[{"key":"a","color":"red"}]`,
	}
	type tc struct {
		path, body string
		dst        func() any
		index      string // whose contents to compare afterwards
	}
	var cases []tc
	create := func(name, body string) {
		cases = append(cases, tc{"/v1/indexes", body, func() any { return new(CreateIndexRequest) }, name})
	}
	upsert := func(body string) {
		cases = append(cases, tc{"/v1/indexes/atlas/upsert", body, func() any { return new(UpsertRequest) }, "atlas"})
	}
	link := func(body string) {
		cases = append(cases, tc{"/v1/link", body, func() any { return new(LinkRequestDTO) }, "atlas"})
	}
	for i, ts := range tupleArrays {
		create(fmt.Sprintf("t%d", i), fmt.Sprintf(`{"name":"t%d","tuples":%s}`, i, ts))
		upsert(fmt.Sprintf(`{"tuples":%s}`, ts))
	}
	create("c1", `{"NAME":"c1","Tuples":[],"Q":2}`)
	create("c2", `{"name":"c0","name":"c2","tuples":[]}`)
	create("c3", `{"name":"c3","tuples":[],"extra":1}`)
	create("c4", `{"name":"c4","tuples":[]} {}`)
	create("c5", `{"name":"c5","q":3.0,"tuples":[]}`)
	create("c6", `{"name":"c6","q":3,"theta":0.8,"shards":2,"profile":"latin","measure":"dice","tuples":[{"id":1,"key":"Forlì"}]}`)
	upsert(`{"TUPLES":[{"key":"k folded"}]}`)
	upsert(`{"tuples":[],"tuples":[{"key":"k dup"}]}`)
	upsert(`{"tuples":[],"x":1}`)
	upsert(`{"tuples":[]}]`)
	for _, body := range []string{
		`{"index":"atlas","keys":["lago di como est","citt\u00e0"]}`,
		`{"INDEX":"atlas","Key":"lago di como est"}`,
		`{"index":"nope","index":"atlas","key":"lago di como est"}`,
		`{"index":"atlas","keys":null,"key":"lago di como est"}`,
		`{"index":"atlas","keys":[]}`,
		`{"index":"atlas","key":"\ud83d\ude00"}`,
		`{"index":"atlas","key":"lago\udc00"}`,
		"{\"index\":\"atlas\",\"keys\":[\"lago\xff\"]}",
		`{"index":"atlas","key":"x","timeout_ms":1.0}`,
		`{"index":"atlas","key":"x","futility_k":1e2}`,
		`{"index":"atlas","key":"x","timeout_ms":9223372036854775808}`,
		`{"index":"atlas","key":"x","explain":1}`,
		`{"index":"atlas","key":"x","nope":true}`,
		`{"index":"atlas","key":"lago di como est"} x`,
		`{"index":"atlas","key":"lago di como est","strategy":"approximate","explain":false}`,
	} {
		link(body)
	}

	for _, c := range cases {
		code, body := serve(gotH, "POST", c.path, strings.NewReader(c.body), -1)
		dst := c.dst()
		var wantCode int
		var wantBody []byte
		if err := plainDecode(strings.NewReader(c.body), dst); err != nil {
			wantCode = http.StatusBadRequest
			wantBody, _ = json.Marshal(ErrorDTO{Error: ErrorBody{Code: CodeInvalid, Message: fmt.Sprintf("invalid request body: %v", err)}})
		} else {
			canonical, err := json.Marshal(dst)
			if err != nil {
				t.Fatal(err)
			}
			wantCode, wantBody = serve(refH, "POST", c.path, bytes.NewReader(canonical), -1)
		}
		compareOutcome(t, c.body, code, body, wantCode, wantBody)
		gotCode, gotSnap := serve(gotH, "GET", "/v1/indexes/"+c.index+"/export", nil, -1)
		refCode, refSnap := serve(refH, "GET", "/v1/indexes/"+c.index+"/export", nil, -1)
		if gotCode != refCode || !bytes.Equal(gotSnap, refSnap) {
			t.Fatalf("%s: index %q differs after the body: %d (%d bytes), plain encoding/json gives %d (%d bytes)",
				c.body, c.index, gotCode, len(gotSnap), refCode, len(refSnap))
		}
	}

	if raceEnabled {
		return // a body over the cap buffers 64 MiB, which the race runtime multiplies
	}
	for _, c := range []struct {
		path, prefix, unit, suffix string
		dst                        func() any
	}{
		{"/v1/indexes", `{"name":"big","tuples":[`, `{"key":"lago maggiore"},`, `{"key":"x"}]}`, func() any { return new(CreateIndexRequest) }},
		{"/v1/indexes/atlas/upsert", `{"tuples":[`, `{"key":"lago maggiore"},`, `{"key":"x"}]}`, func() any { return new(UpsertRequest) }},
		{"/v1/link", `{"index":"atlas","keys":[`, `"lago di como est",`, `"x"]}`, func() any { return new(LinkRequestDTO) }},
		// Malformed long before the cap: the syntax error, not the cap, is
		// what encoding/json reports.
		{"/v1/indexes", `{"name":"big","tuples":[}`, `{"key":"lago maggiore"},`, `{"key":"x"}]}`, func() any { return new(CreateIndexRequest) }},
	} {
		body, size := overLimit(c.prefix, c.unit, c.suffix)
		code, raw := serve(gotH, "POST", c.path, body, size)
		body, _ = overLimit(c.prefix, c.unit, c.suffix)
		err := plainDecode(body, c.dst())
		if err == nil {
			t.Fatalf("%s: plain decoding accepted a body over the cap", c.path)
		}
		t.Logf("%s%s... over the cap: %v", c.path, c.prefix, err)
		want, _ := json.Marshal(ErrorDTO{Error: ErrorBody{Code: CodeInvalid, Message: fmt.Sprintf("invalid request body: %v", err)}})
		compareOutcome(t, c.path+" over the cap", code, raw, http.StatusBadRequest, want)
	}
	if code, _ := serve(gotH, "GET", "/v1/indexes/big", nil, -1); code != http.StatusNotFound {
		t.Fatalf("a create body over the cap made an index: %d", code)
	}
}

// compareOutcome checks a response against the reference: the same
// status, and the same error envelope or, for a link, the same results.
func compareOutcome(t *testing.T, what string, code int, body []byte, wantCode int, wantBody []byte) {
	t.Helper()
	if code != wantCode {
		t.Fatalf("%s: status %d (%s), plain encoding/json gives %d (%s)", what, code, body, wantCode, wantBody)
	}
	var got, want struct {
		Error   ErrorBody       `json:"error"`
		Results json.RawMessage `json:"results"`
		Size    int             `json:"size"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("%s: response %s: %v", what, body, err)
	}
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatalf("%s: reference response %s: %v", what, wantBody, err)
	}
	if got.Error != want.Error || !bytes.Equal(got.Results, want.Results) || got.Size != want.Size {
		t.Fatalf("%s: response %s, plain encoding/json gives %s", what, body, wantBody)
	}
}
