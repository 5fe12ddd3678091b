package relation_test

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
)

// readCSV reads a relation's CSV back through the one CSV reader,
// stream.CSVSource, configured as the public LoadRelationCSV configures
// it.
func readCSV(rd io.Reader, keyName string) ([]relation.Tuple, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = -1
	src, err := stream.FromCSV(cr, keyName, -1)
	if err != nil {
		return nil, err
	}
	var out []relation.Tuple
	for {
		t, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, t)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := relation.New("accidents", relation.NewSchema("location", "date", "severity"))
	r.Append("TAA BZ BOLZANO", "2008-01-02", "minor")
	r.Append("LIG GE GENOVA", "2008-03-04", "major")
	r.Append("has,comma", "with \"quotes\"", "x")

	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	header, err := csv.NewReader(bytes.NewReader(buf.Bytes())).Read()
	if err != nil || !slices.Equal(header, r.Schema.Columns()) {
		t.Errorf("header %v (%v), want the schema's columns %v", header, err, r.Schema.Columns())
	}
	back, err := readCSV(&buf, "location")
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(back) != r.Len() {
		t.Fatalf("round trip lost tuples: %d vs %d", len(back), r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		a, b := r.At(i), back[i]
		if a.Key != b.Key {
			t.Errorf("tuple %d key %q != %q", i, a.Key, b.Key)
		}
		for j := range a.Attrs {
			if a.Attrs[j] != b.Attrs[j] {
				t.Errorf("tuple %d attr %d %q != %q", i, j, a.Attrs[j], b.Attrs[j])
			}
		}
	}
}

func TestReadCSVKeyNotFirstColumn(t *testing.T) {
	in := "date,location\n2008,ROME\n"
	back, err := readCSV(strings.NewReader(in), "location")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if back[0].Key != "ROME" || back[0].Attrs[0] != "2008" {
		t.Errorf("got %v", back[0])
	}
}

func TestReadCSVMissingKeyColumn(t *testing.T) {
	_, err := readCSV(strings.NewReader("a,b\n1,2\n"), "location")
	if err == nil {
		t.Fatal("expected error for missing key column")
	}
}

func TestReadCSVRaggedRow(t *testing.T) {
	_, err := readCSV(strings.NewReader("a,b\n1\n"), "a")
	if err == nil {
		t.Fatal("expected error for ragged row")
	}
}

func TestSaveLoadCSVFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rel.csv")
	r := relation.FromKeys("r", "x", "y")
	if err := r.SaveCSV(path); err != nil {
		t.Fatalf("SaveCSV: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := readCSV(f, "key")
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(back) != 2 || back[1].Key != "y" {
		t.Errorf("read back %v", back)
	}
}

// Property: CSV round-trips preserve arbitrary key strings.
func TestCSVRoundTripProperty(t *testing.T) {
	f := func(keys []string) bool {
		r := relation.New("r", relation.NewSchema("k"))
		for _, k := range keys {
			// csv cannot represent lone \r cleanly across writers/readers,
			// and a record whose only field is empty serialises to a blank
			// line that csv.Reader skips. Join keys are non-empty
			// single-line values, so constrain inputs accordingly.
			k = strings.ReplaceAll(k, "\r", "")
			if k == "" {
				continue
			}
			r.Append(k)
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := readCSV(&buf, "k")
		if err != nil || len(back) != r.Len() {
			return false
		}
		for i := 0; i < r.Len(); i++ {
			if back[i].Key != r.At(i).Key {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
