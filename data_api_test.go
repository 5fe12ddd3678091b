package adaptivelink

import (
	"encoding/csv"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestFromChannelSizeHintValidation(t *testing.T) {
	if _, err := FromChannel(nil, 5); err == nil || !strings.Contains(err.Error(), "nil channel") {
		t.Errorf("nil channel: %v", err)
	}
	ch := make(chan Tuple)
	close(ch)
	if _, err := FromChannel(ch, 0); err == nil || !strings.Contains(err.Error(), "size hint 0") {
		t.Errorf("zero hint: %v", err)
	}
	if _, err := FromChannel(ch, -7); err == nil || !strings.Contains(err.Error(), "-7") {
		t.Errorf("negative hint: %v", err)
	}
	// -1 (unknown) and positive hints are valid.
	ch2 := make(chan Tuple)
	close(ch2)
	src, err := FromChannel(ch2, -1)
	if err != nil {
		t.Fatalf("-1 hint rejected: %v", err)
	}
	if _, ok, err := src.Next(); ok || err != nil {
		t.Fatalf("closed feed: ok=%v err=%v", ok, err)
	}
	ch3 := make(chan Tuple, 1)
	ch3 <- Tuple{Key: "k"}
	close(ch3)
	src, err = FromChannel(ch3, 1)
	if err != nil {
		t.Fatalf("positive hint rejected: %v", err)
	}
	if sized, ok := src.(interface{ EstimatedSize() int }); !ok || sized.EstimatedSize() != 1 {
		t.Fatal("positive hint lost")
	}
}

// A size hint is only what FromChannel's caller claims: bulk loading
// presizes from it, but never reserves more than a capped batch.
func TestBulkLoadCapsSizeHint(t *testing.T) {
	ch := make(chan Tuple, 3)
	for i, k := range []string{"LAGO MAGGIORE", "MONTE ROSA", "VAL DI NON"} {
		ch <- Tuple{ID: i, Key: k}
	}
	close(ch)
	src, err := FromChannel(ch, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ix, err := BulkLoad(src, IndexOptions{Shards: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 3 {
		t.Fatalf("loaded %d tuples, want 3", ix.Len())
	}
	for i, k := range []string{"LAGO MAGGIORE", "MONTE ROSA", "VAL DI NON"} {
		if ms := ix.Probe(k); len(ms) != 1 || ms[0].Ref.ID != i || !ms[0].Exact {
			t.Fatalf("Probe(%q) = %+v, want tuple %d exactly", k, ms, i)
		}
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("bulk loading 3 tuples allocated %d bytes", got)
	}
}

func TestLoadRelationCSVErrorPaths(t *testing.T) {
	cases := []struct {
		name      string
		input     string
		keyColumn string
		nilReader bool
		wantErr   []string
	}{
		{
			name: "nil reader", nilReader: true, keyColumn: "location",
			wantErr: []string{"refs.csv", "nil reader"},
		},
		{
			name: "empty key column", input: "location\nx\n", keyColumn: "",
			wantErr: []string{"refs.csv", "empty key column name"},
		},
		{
			name: "missing key column", input: "date,place\n2008-01-01,x\n", keyColumn: "location",
			wantErr: []string{"refs.csv", `key column "location" not found`, "place"},
		},
		{
			name: "ragged row", input: "location,extra\na,1\nb\n", keyColumn: "location",
			wantErr: []string{"refs.csv", "line 3", "got 1 fields, want 2"},
		},
		{
			name: "malformed quoting", input: "location\n\"broken\nnope", keyColumn: "location",
			wantErr: []string{"refs.csv"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var rd *strings.Reader
			if !c.nilReader {
				rd = strings.NewReader(c.input)
			}
			var err error
			if c.nilReader {
				_, _, err = LoadRelationCSV(nil, "refs.csv", c.keyColumn)
			} else {
				_, _, err = LoadRelationCSV(rd, "refs.csv", c.keyColumn)
			}
			if err == nil {
				t.Fatal("no error")
			}
			for _, want := range c.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
}

func TestLoadRelationCSVRoundTrip(t *testing.T) {
	in := "date,location\n2008-01-01,monte rosa vetta\n2008-01-02,porto cervo marina\n"
	tuples, factory, err := LoadRelationCSV(strings.NewReader(in), "accidents", "location")
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 || tuples[0].Key != "monte rosa vetta" || tuples[1].Attrs[0] != "2008-01-02" {
		t.Fatalf("tuples = %+v", tuples)
	}
	// The factory yields fresh, sized sources over the same data.
	for i := 0; i < 2; i++ {
		src := factory()
		if sized, ok := src.(interface{ EstimatedSize() int }); !ok || sized.EstimatedSize() != 2 {
			t.Fatal("factory source not sized")
		}
		n := 0
		for {
			_, ok, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != 2 {
			t.Fatalf("factory pass %d yielded %d tuples", i, n)
		}
	}
}

// A join over FromChannel that is closed early leaves no goroutine
// behind: the source reads the caller's channel directly, so there is
// no pump left blocked on a send nobody will receive.
func TestFromChannelEarlyCloseLeavesNoGoroutine(t *testing.T) {
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", par), func(t *testing.T) {
			base := runtime.NumGoroutine()
			keys := make([]string, 64)
			ch := make(chan Tuple, len(keys))
			for i := range keys {
				keys[i] = fmt.Sprintf("key %02d", i)
				ch <- Tuple{Key: keys[i]}
			}
			close(ch)
			src, err := FromChannel(ch, len(keys))
			if err != nil {
				t.Fatal(err)
			}
			j, err := New(FromKeys(keys...), src, Options{Strategy: ExactOnly, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Open(); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := j.Next(); !ok || err != nil {
				t.Fatalf("first match: ok=%v err=%v", ok, err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after Close, %d before Open", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// FromCSV (over an encoding/csv Reader with FieldsPerRecord = -1) and
// LoadRelationCSV read CSV alike: the same tuples, or the same error,
// which LoadRelationCSV prefixes with the relation's name.
func TestCSVEntryPointsAgree(t *testing.T) {
	cases := []struct {
		name    string
		input   string
		want    []Tuple
		wantErr []string
	}{
		{
			name:    "ragged row",
			input:   "location,extra\na,1\nb\n",
			wantErr: []string{"line 3", "got 1 fields, want 2"},
		},
		{
			name:    "missing key column",
			input:   "date,place\n2008-01-01,x\n",
			wantErr: []string{`key column "location" not found`, "place"},
		},
		{
			name:  "repeated key column",
			input: "location,date,location\nx,2008,y\n",
			want:  []Tuple{{ID: 0, Key: "x", Attrs: []string{"2008", "y"}}},
		},
		{
			name:  "header only",
			input: "location,date\n",
		},
		{
			// The quoted newline spans two physical lines, but lines
			// count records: the ragged record is line 3.
			name:    "quoted newline",
			input:   "location,note\n\"a\",\"two\nlines\"\nb\n",
			wantErr: []string{"line 3", "got 1 fields, want 2"},
		},
		{
			name:  "quoted newline kept",
			input: "location,note\n\"a\",\"two\nlines\"\n",
			want:  []Tuple{{ID: 0, Key: "a", Attrs: []string{"two\nlines"}}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			streamed, serr := drainCSV(c.input)
			loaded, _, lerr := LoadRelationCSV(strings.NewReader(c.input), "refs.csv", "location")
			if c.wantErr != nil {
				if serr == nil || lerr == nil {
					t.Fatalf("FromCSV err %v, LoadRelationCSV err %v; want errors", serr, lerr)
				}
				if want := "adaptivelink: LoadRelationCSV refs.csv: " + serr.Error(); lerr.Error() != want {
					t.Errorf("LoadRelationCSV error %q, want %q", lerr, want)
				}
				for _, w := range c.wantErr {
					if !strings.Contains(serr.Error(), w) {
						t.Errorf("error %q missing %q", serr, w)
					}
				}
				return
			}
			if serr != nil || lerr != nil {
				t.Fatalf("FromCSV err %v, LoadRelationCSV err %v", serr, lerr)
			}
			for name, got := range map[string][]Tuple{"FromCSV": streamed, "LoadRelationCSV": loaded} {
				if !equalTuples(got, c.want) {
					t.Errorf("%s = %+v, want %+v", name, got, c.want)
				}
			}
		})
	}
}

// drainCSV streams input through FromCSV with the key column
// "location", returning every tuple or the first error.
func drainCSV(input string) ([]Tuple, error) {
	cr := csv.NewReader(strings.NewReader(input))
	cr.FieldsPerRecord = -1
	src, err := FromCSV(cr, "location", -1)
	if err != nil {
		return nil, err
	}
	var out []Tuple
	for {
		tup, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, tup)
	}
}

func equalTuples(a, b []Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y Tuple) bool {
		return x.ID == y.ID && x.Key == y.Key && slices.Equal(x.Attrs, y.Attrs)
	})
}
