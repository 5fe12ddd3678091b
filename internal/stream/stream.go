// Package stream provides the pull-based tuple sources consumed by the
// symmetric join operators, together with the interleaving policies that
// decide which input to read from at each step of a symmetric scan.
//
// The paper targets scenarios where the joining tables are effectively
// data streams: advance access is impossible, tuples arrive one at a
// time, and pipelined operators must produce results before the inputs
// are exhausted. A Source abstracts over in-memory relations, channels
// (live feeds) and CSV readers. Sources optionally expose a cardinality
// estimate; the adaptive monitor needs the parent table's expected size
// |R| to compute the match probability p(n) = seen/|R| of §3.2.
package stream

import (
	"errors"
	"fmt"
	"io"
	"math/rand"

	"adaptivelink/internal/relation"
)

// Side identifies one of the two join inputs.
type Side int

const (
	// Left is the left join input (conventionally the parent table R).
	Left Side = iota
	// Right is the right join input (conventionally the child table S).
	Right
)

// Other returns the opposite side.
func (s Side) Other() Side {
	if s == Left {
		return Right
	}
	return Left
}

// String returns "left" or "right".
func (s Side) String() string {
	switch s {
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("Side(%d)", int(s))
	}
}

// Source yields tuples one at a time.
type Source interface {
	// Next returns the next tuple. ok is false once the source is
	// exhausted, after which further calls must keep returning ok=false.
	Next() (t relation.Tuple, ok bool, err error)
}

// Sized is implemented by sources that know (or can estimate) how many
// tuples they will yield in total.
type Sized interface {
	// EstimatedSize returns the expected total number of tuples.
	EstimatedSize() int
}

// SliceSource streams an in-memory relation in order.
type SliceSource struct {
	rel *relation.Relation
	pos int
}

// FromRelation wraps a relation as a Source.
func FromRelation(rel *relation.Relation) *SliceSource {
	return &SliceSource{rel: rel}
}

// Next implements Source.
func (s *SliceSource) Next() (relation.Tuple, bool, error) {
	if s.pos >= s.rel.Len() {
		return relation.Tuple{}, false, nil
	}
	t := s.rel.At(s.pos)
	s.pos++
	return t, true, nil
}

// EstimatedSize implements Sized exactly.
func (s *SliceSource) EstimatedSize() int { return s.rel.Len() }

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// ChanSource streams tuples from a channel, e.g. a live feed. The
// channel owner closes it to signal exhaustion. An estimated size may be
// supplied when the feed's cardinality is known out of band.
type ChanSource struct {
	ch   <-chan relation.Tuple
	size int
}

// FromChannel wraps a channel as a Source; estimatedSize < 0 means
// unknown.
func FromChannel(ch <-chan relation.Tuple, estimatedSize int) *ChanSource {
	return &ChanSource{ch: ch, size: estimatedSize}
}

// Next implements Source, blocking until a tuple arrives or the channel
// closes.
func (c *ChanSource) Next() (relation.Tuple, bool, error) {
	t, ok := <-c.ch
	return t, ok, nil
}

// EstimatedSize implements Sized; negative means unknown.
func (c *ChanSource) EstimatedSize() int { return c.size }

// CSVSource streams tuples from CSV without materialising the relation.
// It is the one CSV reader: whole-file loads drain it too, so streamed
// and loaded input are validated alike.
type CSVSource struct {
	rd     recordReader
	keyCol int
	width  int // header width; every record must have as many fields
	next   int // next tuple ID
	size   int
	done   bool
}

type recordReader interface {
	Read() ([]string, error)
}

// FromCSV builds a streaming source over a CSV reader whose first row is
// a header containing keyName. The first column named keyName is the
// join key; every other column, a repeated keyName included, is a
// payload attribute in header order. A record whose field count differs
// from the header's is an error, so pass an encoding/csv Reader with
// FieldsPerRecord = -1 to have the source report it. estimatedSize < 0
// means unknown.
func FromCSV(r recordReader, keyName string, estimatedSize int) (*CSVSource, error) {
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	keyCol := -1
	for i, h := range header {
		if h == keyName {
			keyCol = i
			break
		}
	}
	if keyCol < 0 {
		return nil, fmt.Errorf("key column %q not found in header %v", keyName, header)
	}
	return &CSVSource{rd: r, keyCol: keyCol, width: len(header), size: estimatedSize}, nil
}

// Next implements Source. Errors name the record's line, counting the
// header as line 1 and each record as one line (a quoted field that
// spans lines does not advance the count). After an error the source
// is exhausted.
func (c *CSVSource) Next() (relation.Tuple, bool, error) {
	if c.done {
		return relation.Tuple{}, false, nil
	}
	rec, err := c.rd.Read()
	if errors.Is(err, io.EOF) {
		c.done = true
		return relation.Tuple{}, false, nil
	}
	line := c.next + 2
	if err == nil && len(rec) != c.width {
		err = fmt.Errorf("got %d fields, want %d", len(rec), c.width)
	}
	if err != nil {
		c.done = true
		return relation.Tuple{}, false, fmt.Errorf("line %d: %w", line, err)
	}
	attrs := make([]string, 0, c.width-1)
	for i, v := range rec {
		if i != c.keyCol {
			attrs = append(attrs, v)
		}
	}
	t := relation.Tuple{ID: c.next, Key: rec[c.keyCol], Attrs: attrs}
	c.next++
	return t, true, nil
}

// EstimatedSize implements Sized; negative means unknown.
func (c *CSVSource) EstimatedSize() int { return c.size }

// EstimateSize returns the source's size estimate, or fallback when the
// source does not implement Sized or reports unknown.
func EstimateSize(s Source, fallback int) int {
	if sized, ok := s.(Sized); ok {
		if n := sized.EstimatedSize(); n >= 0 {
			return n
		}
	}
	return fallback
}

// Interleaver decides which input the symmetric scan reads next. Pick is
// called with the exhaustion state of both sides and must return a
// non-exhausted side; when both are exhausted the scan has ended and
// Pick is not called.
type Interleaver interface {
	Pick(leftDone, rightDone bool) Side
}

// RoundRobin alternates strictly between sides, starting from Start,
// falling back to whichever side remains once the other is exhausted.
// This is the canonical symmetric scan assumed by the paper's result-size
// model.
type RoundRobin struct {
	Start Side
	last  Side
	first bool
}

// NewRoundRobin returns an alternating interleaver starting on start.
func NewRoundRobin(start Side) *RoundRobin {
	return &RoundRobin{Start: start, first: true}
}

// Pick implements Interleaver.
func (r *RoundRobin) Pick(leftDone, rightDone bool) Side {
	var want Side
	if r.first {
		want = r.Start
		r.first = false
	} else {
		want = r.last.Other()
	}
	got := resolve(want, leftDone, rightDone)
	r.last = got
	return got
}

// RandomInterleave reads from a random side with a configurable bias; a
// leftProb of 0.5 models two feeds with equal arrival rates. The rng is
// owned by the interleaver so runs are reproducible from a seed.
type RandomInterleave struct {
	rng      *rand.Rand
	leftProb float64
}

// NewRandomInterleave builds a random interleaver. leftProb must be in
// [0, 1].
func NewRandomInterleave(seed int64, leftProb float64) *RandomInterleave {
	if leftProb < 0 || leftProb > 1 {
		panic(fmt.Sprintf("stream: leftProb %v outside [0,1]", leftProb))
	}
	return &RandomInterleave{rng: rand.New(rand.NewSource(seed)), leftProb: leftProb}
}

// Pick implements Interleaver.
func (r *RandomInterleave) Pick(leftDone, rightDone bool) Side {
	var want Side
	if r.rng.Float64() < r.leftProb {
		want = Left
	} else {
		want = Right
	}
	return resolve(want, leftDone, rightDone)
}

// Sequential exhausts First entirely before reading the other side —
// the classic build-then-probe order, useful as a degenerate baseline
// and in tests.
type Sequential struct {
	First Side
}

// Pick implements Interleaver.
func (s Sequential) Pick(leftDone, rightDone bool) Side {
	return resolve(s.First, leftDone, rightDone)
}

// resolve returns want unless that side is exhausted, in which case it
// returns the other side; it panics if both are exhausted, which means
// the caller violated the Interleaver contract.
func resolve(want Side, leftDone, rightDone bool) Side {
	if leftDone && rightDone {
		panic("stream: Pick called with both sides exhausted")
	}
	if want == Left && leftDone {
		return Right
	}
	if want == Right && rightDone {
		return Left
	}
	return want
}
