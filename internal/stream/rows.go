package stream

import (
	"errors"
	"iter"

	"adaptivelink/internal/relation"
)

// Rows is a source over the rows of one slice, which a producer may
// still be filling in on its own goroutine. A bulk load adopts the rows
// (Adopt) instead of reading them one at a time into a copy, and starts
// on each row as soon as the producer publishes it. Complete rows
// (RowsOf) may also be read through Next; rows still filling in are
// only adopted.
type Rows struct {
	rows []relation.Tuple
	fill func(publish func(done int)) error
	pos  int
}

// rowsChunk is how many rows a producer publishes at a time: few
// enough handoffs to cost nothing, small enough that the consumer
// starts early and never waits on a large tail.
const rowsChunk = 256

// RowsOf returns a source over rows that are already complete.
func RowsOf(rows []relation.Tuple) *Rows { return &Rows{rows: rows} }

// Filling returns a source over rows that fill writes in order, to be
// adopted. fill runs once, on its own goroutine, when they are;
// it calls publish(done) after each row it completes (rows[:done] are
// then final) and returns an error if it stops short.
func Filling(rows []relation.Tuple, fill func(publish func(done int)) error) *Rows {
	return &Rows{rows: rows, fill: fill}
}

// Adopt hands the unread rows to the caller and ends the source. ready
// yields ascending counts c, each meaning rows[:c] are complete and no
// longer written; the last is len(rows), unless the producer failed,
// in which case ready ends by yielding its error. The caller owns the
// rows: no other reader of the source sees them.
func (r *Rows) Adopt() (rows []relation.Tuple, ready iter.Seq2[int, error]) {
	rows, fill := r.rows[r.pos:], r.fill
	r.pos, r.fill = len(r.rows), nil
	if fill == nil {
		return rows, func(yield func(int, error) bool) { yield(len(rows), nil) }
	}
	// One mark per published chunk, plus the last; the buffer holds them
	// all, so the producer never blocks, even on a consumer that stopped
	// listening.
	marks := make(chan int, len(rows)/rowsChunk+2)
	var err error
	go func() {
		defer close(marks)
		last := 0
		err = fill(func(done int) {
			if done-last >= rowsChunk || done == len(rows) {
				marks <- done
				last = done
			}
		})
	}()
	return rows, func(yield func(int, error) bool) {
		for c := range marks {
			if !yield(c, nil) {
				return
			}
		}
		if err != nil {
			yield(0, err) // written before marks closed
		}
	}
}

// maxDrainPresize caps the capacity a source's size estimate reserves:
// a channel source's hint is only what its caller claims.
const maxDrainPresize = 1 << 16

// Adopt takes a bulk load's rows from src: a Rows hands over its rows,
// which may still be filling in, and any other source is drained into a
// batch first. ready yields the counts of rows that are complete, as
// (*Rows).Adopt does, or the source's error.
func Adopt(src Source) (rows []relation.Tuple, ready iter.Seq2[int, error]) {
	if r, ok := src.(*Rows); ok {
		return r.Adopt()
	}
	batch, err := collect(src)
	return batch, func(yield func(int, error) bool) { yield(len(batch), err) }
}

func collect(src Source) ([]relation.Tuple, error) {
	batch := make([]relation.Tuple, 0, min(EstimateSize(src, 0), maxDrainPresize))
	for {
		t, ok, err := src.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return batch, nil
		}
		batch = append(batch, t)
	}
}

// errFilling refuses Next on rows a producer has still to fill in.
var errFilling = errors.New("stream: rows still filling in are adopted, not read")

// Next implements Source over complete rows.
func (r *Rows) Next() (relation.Tuple, bool, error) {
	if r.fill != nil {
		return relation.Tuple{}, false, errFilling
	}
	if r.pos >= len(r.rows) {
		return relation.Tuple{}, false, nil
	}
	r.pos++
	return r.rows[r.pos-1], true, nil
}

// EstimatedSize implements Sized exactly.
func (r *Rows) EstimatedSize() int { return len(r.rows) }
