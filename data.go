package adaptivelink

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"

	"adaptivelink/internal/datagen"
	"adaptivelink/internal/normalize"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/stream"
)

// Tuple is a record flowing through a join: a join key plus optional
// payload attributes. ID is assigned by sources in arrival order. It is
// the engine's own tuple type, so tuples cross the API uncopied.
type Tuple = relation.Tuple

// Source yields tuples one at a time. Implementations that additionally
// implement interface{ EstimatedSize() int } let adaptive joins infer
// the parent cardinality.
type Source interface {
	// Next returns the next tuple, with ok=false on exhaustion.
	Next() (t Tuple, ok bool, err error)
}

// FromTuples returns a sized source over the given tuples, assigning
// sequential IDs. The source copies each tuple's Attrs, all into one
// arena, so the caller may reuse its slices afterwards. BulkLoad adopts
// the source's rows rather than copying them again; the caller's slices
// are still never aliased.
func FromTuples(tuples []Tuple) Source {
	n := 0
	for _, t := range tuples {
		n += len(t.Attrs)
	}
	arena := make([]string, 0, n)
	rows := make([]Tuple, len(tuples))
	for i, t := range tuples {
		rows[i] = Tuple{ID: i, Key: t.Key}
		if len(t.Attrs) > 0 {
			start := len(arena)
			arena = append(arena, t.Attrs...)
			rows[i].Attrs = arena[start:len(arena):len(arena)]
		}
	}
	return stream.RowsOf(rows)
}

// FromKeys returns a sized source of payload-free tuples with the given
// join keys.
func FromKeys(keys ...string) Source {
	return stream.FromRelation(relation.FromKeys("keys", keys...))
}

// FromChannel returns a source fed by a channel; close the channel to
// end the stream. The source reads the channel directly and starts no
// goroutine. sizeHint is the expected tuple count (pass a positive
// value when this side is the parent of an adaptive join); use -1 when
// unknown. A nil channel, a zero hint (a feed expected to yield nothing
// cannot be joined) or a negative hint other than -1 is rejected with a
// descriptive error.
func FromChannel(ch <-chan Tuple, sizeHint int) (Source, error) {
	if ch == nil {
		return nil, fmt.Errorf("adaptivelink: FromChannel: nil channel")
	}
	if sizeHint == 0 {
		return nil, fmt.Errorf("adaptivelink: FromChannel: size hint 0 declares an empty feed; pass the expected tuple count, or -1 when unknown")
	}
	if sizeHint < -1 {
		return nil, fmt.Errorf("adaptivelink: FromChannel: negative size hint %d; pass the expected tuple count, or -1 when unknown", sizeHint)
	}
	return stream.FromChannel(ch, sizeHint), nil
}

// NormalizeKey applies the standard key normalisation (accent folding,
// upper-casing, punctuation removal, whitespace collapsing) used by
// record-linkage data preparation. Apply it to both inputs so the
// similarity budget is spent on genuine typos rather than formatting.
func NormalizeKey(key string) string { return normalize.Standard().Apply(key) }

// NormalizeSource wraps a source, normalising every tuple's join key
// with NormalizeKey. Payload attributes are untouched. Size estimates
// pass through.
func NormalizeSource(src Source) Source { return &normalizingSource{src: src} }

type normalizingSource struct {
	src  Source
	norm *normalize.Normalizer
}

func (n *normalizingSource) Next() (Tuple, bool, error) {
	t, ok, err := n.src.Next()
	if !ok || err != nil {
		return t, ok, err
	}
	if n.norm == nil {
		n.norm = normalize.Standard()
	}
	t.Key = n.norm.Apply(t.Key)
	return t, true, nil
}

func (n *normalizingSource) EstimatedSize() int { return stream.EstimateSize(n.src, -1) }

// CSVRecordReader matches encoding/csv.Reader's Read method.
type CSVRecordReader interface {
	Read() ([]string, error)
}

// FromCSV returns a streaming source over CSV records whose header
// contains keyColumn; remaining columns become payload attributes.
// sizeHint is the expected row count, -1 when unknown. A record whose
// field count differs from the header's is an error naming its line,
// exactly as in LoadRelationCSV; an encoding/csv Reader needs
// FieldsPerRecord = -1 to leave that check to the source.
func FromCSV(r CSVRecordReader, keyColumn string, sizeHint int) (Source, error) {
	src, err := stream.FromCSV(r, keyColumn, sizeHint)
	if err != nil {
		return nil, err
	}
	return src, nil
}

// LoadRelationCSV reads a whole CSV file into memory and returns it as
// tuples plus a sized Source factory (each call to the returned function
// yields a fresh source over the same data, so the relation can be
// joined multiple times). It drains the same reader FromCSV streams, so
// both validate alike. Errors — a nil reader, an empty key column
// name, a header without the key column, ragged or malformed rows —
// carry the relation name and, where applicable, the line number.
func LoadRelationCSV(r io.Reader, name, keyColumn string) ([]Tuple, func() Source, error) {
	if r == nil {
		return nil, nil, fmt.Errorf("adaptivelink: LoadRelationCSV %s: nil reader", name)
	}
	if keyColumn == "" {
		return nil, nil, fmt.Errorf("adaptivelink: LoadRelationCSV %s: empty key column name; name the header column holding the join key", name)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	src, err := stream.FromCSV(cr, keyColumn, -1)
	if err != nil {
		return nil, nil, fmt.Errorf("adaptivelink: LoadRelationCSV %s: %w", name, err)
	}
	rel := relation.New(name, relation.NewSchema(keyColumn))
	for {
		t, ok, err := src.Next()
		if err != nil {
			return nil, nil, fmt.Errorf("adaptivelink: LoadRelationCSV %s: %w", name, err)
		}
		if !ok {
			break
		}
		rel.AppendTuple(t)
	}
	factory := func() Source { return stream.FromRelation(rel) }
	return slices.Clone(rel.Tuples()), factory, nil
}

// Pattern names a perturbation placement for test-data generation.
type Pattern string

// Perturbation patterns of the paper's Fig. 5.
const (
	PatternUniform        Pattern = "uniform"
	PatternInterleavedLow Pattern = "interleaved-low"
	PatternFewHigh        Pattern = "few-high"
	PatternManyHigh       Pattern = "many-high"
)

// Script names a writing system for test-data generation.
type Script string

// Generator scripts: the paper's pseudo-Italian ASCII default plus
// non-Latin scripts that exercise the engine's Unicode paths.
const (
	ScriptASCII          Script = "ascii"
	ScriptLatinDiacritic Script = "latin-diacritic"
	ScriptCyrillic       Script = "cyrillic"
	ScriptGreek          Script = "greek"
	ScriptCJK            Script = "cjk"
)

// TestData is a generated parent/child table pair with ground truth,
// mirroring the paper's evaluation datasets.
type TestData struct {
	// Parent holds unique location tuples; Child references them.
	Parent []Tuple
	Child  []Tuple
	// ChildParent[i] is the index in Parent that Child[i] represents,
	// regardless of perturbation.
	ChildParent []int
	// ChildVariant/ParentVariant flag perturbed tuples.
	ChildVariant  []bool
	ParentVariant []bool
}

// ParentSource returns a fresh sized source over the parent table.
func (d *TestData) ParentSource() Source { return FromTuples(d.Parent) }

// ChildSource returns a fresh sized source over the child table.
func (d *TestData) ChildSource() Source { return FromTuples(d.Child) }

// GenerateTestData synthesises a parent/child dataset in the style of
// the paper's evaluation (§4.1): parentSize unique location strings, a
// child of childSize tuples each referencing a uniformly random parent,
// and 1-character variants injected at the given overall rate following
// the pattern. perturbParent additionally perturbs the parent table.
// Generation is deterministic in seed.
func GenerateTestData(seed int64, parentSize, childSize int, pattern Pattern, variantRate float64, perturbParent bool) (*TestData, error) {
	return GenerateTestDataScript(seed, parentSize, childSize, pattern, ScriptASCII, variantRate, perturbParent)
}

// GenerateTestDataScript is GenerateTestData with an explicit key
// script: ScriptASCII reproduces GenerateTestData exactly, the
// non-Latin scripts compose keys (and inject their 1-character
// variants) in the named writing system, driving the engine's
// rune-packed gram path end to end.
func GenerateTestDataScript(seed int64, parentSize, childSize int, pattern Pattern, script Script, variantRate float64, perturbParent bool) (*TestData, error) {
	ip, ok := datagen.ParsePattern(string(pattern))
	if !ok {
		return nil, fmt.Errorf(`adaptivelink: unknown pattern %s (want "uniform", "interleaved-low", "few-high" or "many-high")`, string(pattern))
	}
	if script == "" {
		script = ScriptASCII
	}
	is, ok := datagen.ParseScript(string(script))
	if !ok {
		return nil, fmt.Errorf(`adaptivelink: unknown script %q (want "ascii", "latin-diacritic", "cyrillic", "greek" or "cjk")`, string(script))
	}
	spec := datagen.Spec{
		Seed:          seed,
		ParentSize:    parentSize,
		ChildSize:     childSize,
		VariantRate:   variantRate,
		Pattern:       ip,
		PerturbParent: perturbParent,
		Script:        is,
	}
	ds, err := datagen.Generate(spec)
	if err != nil {
		return nil, err
	}
	return &TestData{
		Parent:        ds.Parent.Tuples(),
		Child:         ds.Child.Tuples(),
		ChildParent:   ds.ChildParent,
		ChildVariant:  ds.ChildVariant,
		ParentVariant: ds.ParentVariant,
	}, nil
}
