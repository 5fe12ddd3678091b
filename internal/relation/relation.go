// Package relation provides the tuple and relation model used throughout
// the adaptive linkage engine.
//
// The engine joins two inputs (conventionally called the parent table R
// and the child table S) on a single string attribute. Tuples therefore
// carry a join key plus an arbitrary payload of named attributes. A
// Relation is an ordered, in-memory collection of tuples with a Schema;
// it can be written as CSV so that the command-line tools can produce
// files (the stream package's CSVSource reads them back), and it can be
// viewed as a stream by the stream package.
package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
)

// Tuple is a single record. The engine joins on Key; Attrs holds the
// remaining attribute values positionally, interpreted via the owning
// relation's Schema. ID is unique within its relation and is assigned at
// append time; it is stable across streaming and is used to identify
// tuples in join results.
type Tuple struct {
	ID    int
	Key   string
	Attrs []string
}

// Schema names the columns of a relation. The join key column is named
// explicitly; attribute columns are positional.
type Schema struct {
	// KeyName is the name of the join-key column.
	KeyName string
	// AttrNames are the names of the payload columns, in Tuple.Attrs order.
	AttrNames []string
}

// NewSchema builds a schema from a key column name and payload names.
func NewSchema(keyName string, attrNames ...string) Schema {
	return Schema{KeyName: keyName, AttrNames: append([]string(nil), attrNames...)}
}

// Columns returns all column names, key first.
func (s Schema) Columns() []string {
	cols := make([]string, 0, 1+len(s.AttrNames))
	cols = append(cols, s.KeyName)
	cols = append(cols, s.AttrNames...)
	return cols
}

// Relation is an ordered in-memory table.
type Relation struct {
	Name   string
	Schema Schema
	tuples []Tuple
}

// New creates an empty relation with the given name and schema.
func New(name string, schema Schema) *Relation {
	return &Relation{Name: name, Schema: schema}
}

// Append adds a tuple built from a key and payload values, assigning the
// next sequential ID. It returns the assigned ID.
func (r *Relation) Append(key string, attrs ...string) int {
	id := len(r.tuples)
	r.tuples = append(r.tuples, Tuple{ID: id, Key: key, Attrs: append([]string(nil), attrs...)})
	return id
}

// AppendTuple adds a pre-built tuple, overwriting its ID with the next
// sequential ID, and returns the assigned ID.
func (r *Relation) AppendTuple(t Tuple) int {
	id := len(r.tuples)
	t.ID = id
	r.tuples = append(r.tuples, t)
	return id
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// At returns the tuple at position i (which equals its ID).
func (r *Relation) At(i int) Tuple { return r.tuples[i] }

// Tuples returns the underlying tuple slice. Callers must not mutate it.
func (r *Relation) Tuples() []Tuple { return r.tuples }

// WriteCSV emits the relation as CSV with a header row (key column first).
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Schema.Columns()); err != nil {
		return fmt.Errorf("write header: %w", err)
	}
	row := make([]string, 1+len(r.Schema.AttrNames))
	for _, t := range r.tuples {
		row = row[:0]
		row = append(row, t.Key)
		row = append(row, t.Attrs...)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("write tuple %d: %w", t.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the relation to the named file.
func (r *Relation) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// FromKeys builds a relation with no payload columns from a key list,
// numbering the tuples in order.
func FromKeys(name string, keys ...string) *Relation {
	tuples := make([]Tuple, len(keys))
	for i, k := range keys {
		tuples[i] = Tuple{ID: i, Key: k}
	}
	return &Relation{Name: name, Schema: NewSchema("key"), tuples: tuples}
}
