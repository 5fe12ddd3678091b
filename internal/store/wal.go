package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"time"

	"adaptivelink/internal/join"
	"adaptivelink/internal/relation"
	"adaptivelink/internal/simfn"
	"adaptivelink/internal/vfs"
)

// WALVersion is the current write-ahead-log format version. Version 2
// appended the normalization-profile string to the header; version-1
// logs still load, with the profile read as "" (they predate profiles,
// when every key was logged verbatim).
const WALVersion = 2

var walMagic = [8]byte{'A', 'L', 'W', 'A', 'L', 0x01, 0x01, '\n'}

// walFixedHeaderSize is the version-independent prefix: magic, version,
// q, measure, shards, theta. A v2 header continues with
// [profile len u32][profile bytes].
const walFixedHeaderSize = 8 + 4 + 4 + 4 + 4 + 8

// maxProfileLen bounds the profile string in WAL and snapshot headers.
// Registry names are single words; a longer length field is corruption.
const maxProfileLen = 255

// maxWALPayload caps a single frame. A length prefix beyond it is
// corruption by construction (no acknowledged append writes frames this
// large), so hostile prefixes cannot demand absurd allocations.
const maxWALPayload = 1 << 30

const walKindUpsert = 1

// SyncPolicy says when the WAL reaches stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged Upsert
	// survives an immediate crash. This is the default.
	SyncAlways SyncPolicy = iota
	// SyncNone leaves flushing to the OS: faster ingest, and a crash may
	// lose the most recent appends (but never corrupts what it kept —
	// replay stops cleanly at the torn tail).
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Meta is the compatibility tuple a durable artifact is bound to. A
// snapshot or WAL written under one meta refuses to load into an index
// configured differently: Q and Measure change every signature, Theta
// changes every probe verdict, and the shard count changes routing, so
// a silent mismatch would mean silently wrong answers.
type Meta struct {
	Q       int
	Theta   float64
	Measure simfn.TokenMeasure
	Shards  int
	// Profile is the normalization profile the index's keys were
	// normalised with before indexing (see normalize.ProfileNamed).
	// Keys on disk are already normalised, so reopening under another
	// profile would probe normalised postings with differently-folded
	// keys — a silent-mismatch class all its own, hence part of the
	// compatibility tuple. "" for verbatim keys (and for every v1
	// artifact, which predates profiles).
	Profile string
}

// MetaOf extracts the compatibility tuple of a resident index.
func MetaOf(ix *join.ShardedRefIndex) Meta {
	cfg := ix.Config()
	return Meta{Q: cfg.Q, Theta: cfg.Theta, Measure: cfg.Measure, Shards: ix.Shards(), Profile: cfg.Profile}
}

// Check compares two metas field by field, naming every mismatch.
func (m Meta) Check(other Meta) error {
	var bad []string
	if m.Q != other.Q {
		bad = append(bad, fmt.Sprintf("q %d vs %d", m.Q, other.Q))
	}
	if math.Float64bits(m.Theta) != math.Float64bits(other.Theta) {
		bad = append(bad, fmt.Sprintf("theta %v vs %v", m.Theta, other.Theta))
	}
	if m.Measure != other.Measure {
		bad = append(bad, fmt.Sprintf("measure %v vs %v", m.Measure, other.Measure))
	}
	if m.Shards != other.Shards {
		bad = append(bad, fmt.Sprintf("shards %d vs %d", m.Shards, other.Shards))
	}
	if m.Profile != other.Profile {
		bad = append(bad, fmt.Sprintf("normalization profile %q vs %q", m.Profile, other.Profile))
	}
	if bad != nil {
		return fmt.Errorf("store: configuration mismatch: %v (stored state only reloads under the configuration that built it)", bad)
	}
	return nil
}

// WAL is an append-only upsert log. Every acknowledged append is one
// CRC-framed record ([len u32][crc u32][payload]); under SyncAlways the
// frame is on stable storage before Append returns. On open, intact
// frames replay in order, a torn tail (a crash mid-write) is dropped
// and truncated away — it was never acknowledged — and any complete
// frame whose CRC or structure fails is a hard error: bit rot is not
// silently skipped.
type WAL struct {
	f       vfs.File
	path    string
	sync    SyncPolicy
	records int64
	enc     []byte
	// hdrSize is this file's header length (version- and
	// profile-dependent); Reset truncates back to it.
	hdrSize int64
	// poisoned is set when an append left the log's on-disk state
	// unknowable (a failed write may have landed a partial frame, a
	// failed fsync may have lost an acknowledged-looking one — the
	// fsyncgate lesson: after a failed fsync the kernel may have dropped
	// the dirty pages, so retrying as if nothing happened silently loses
	// data). Every subsequent Append refuses with a descriptive error;
	// only a successful Reset (which discards the unknowable region
	// wholesale) or a reopen clears it.
	poisoned error

	// Latency telemetry; see WALStats. Only Append updates them, and
	// Append is caller-serialised, so plain fields suffice. appends
	// counts Append calls since open — unlike records it is neither
	// seeded by replay nor reset by checkpoints.
	appends     int64
	appendNanos int64
	fsyncNanos  int64
}

// WALStats is the log's cumulative latency telemetry.
type WALStats struct {
	// Appends is the number of acknowledged Append calls since open.
	Appends int64
	// AppendNanos is the total wall time spent inside Append (encode +
	// write + fsync); FsyncNanos the fsync share of it (0 under
	// SyncNone). Divide by Appends for the mean acknowledged-append
	// latency — the durability tax an upsert pays.
	AppendNanos int64
	FsyncNanos  int64
}

// Stats returns the log's latency counters. Call from the goroutine
// that appends (or a quiescent point): the WAL itself is not
// concurrency-safe, and neither are its counters.
func (w *WAL) Stats() WALStats {
	return WALStats{Appends: w.appends, AppendNanos: w.appendNanos, FsyncNanos: w.fsyncNanos}
}

// Replay is what OpenWALFS recovered from an existing log.
type Replay struct {
	// Batches are the logged upsert batches, in append order. Applying
	// them to the index the accompanying snapshot loaded reproduces the
	// pre-crash state exactly.
	Batches [][]relation.Tuple
	// Records is len(Batches), the recovered frame count.
	Records int64
	// TornTail reports that a trailing partial frame was discarded and
	// truncated (an unacknowledged write interrupted by a crash).
	TornTail bool
}

// OpenWALFS opens or creates the log at path in fsys (vfs.OS, or the
// fault shim's filesystem for crash and fsync-failure schedules). A
// fresh file gets a header binding it to meta; an existing file must
// carry the same meta and replays its intact frames into the returned
// Replay. The WAL is then positioned for appending.
func OpenWALFS(fsys vfs.FS, path string, meta Meta, sync SyncPolicy) (*WAL, *Replay, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	w := &WAL{f: f, path: path, sync: sync}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if len(data) == 0 {
		if err := w.writeHeader(meta); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, &Replay{}, nil
	}
	// A crash during the very first header write can leave a strict
	// prefix of the header we were about to produce. Such a file cannot
	// contain an acknowledged record (records only ever follow a complete
	// header), so it is recreated rather than reported corrupt — the
	// torn-header analogue of dropping a torn frame tail.
	if hdr, herr := headerBytes(meta); herr == nil && len(data) < len(hdr) && string(data) == string(hdr[:len(data)]) {
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := w.writeHeader(meta); err != nil {
			f.Close()
			return nil, nil, err
		}
		return w, &Replay{TornTail: true}, nil
	}
	dec, err := decodeWALBytes(data)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := meta.Check(dec.meta); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if dec.good < len(data) {
		// Drop the torn tail so the next append starts on a frame
		// boundary.
		if err := f.Truncate(int64(dec.good)); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(int64(dec.good), io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w.records = int64(len(dec.batches))
	w.hdrSize = int64(dec.hdrSize)
	return w, &Replay{Batches: dec.batches, Records: int64(len(dec.batches)), TornTail: dec.torn}, nil
}

// headerBytes renders the v2 header a fresh WAL bound to meta starts
// with.
func headerBytes(meta Meta) ([]byte, error) {
	if len(meta.Profile) > maxProfileLen {
		return nil, fmt.Errorf("store: normalization profile name %d bytes long, cap is %d", len(meta.Profile), maxProfileLen)
	}
	buf := make([]byte, walFixedHeaderSize+4, walFixedHeaderSize+4+len(meta.Profile))
	copy(buf[:8], walMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], WALVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(meta.Q))
	binary.LittleEndian.PutUint32(buf[16:], uint32(meta.Measure))
	binary.LittleEndian.PutUint32(buf[20:], uint32(meta.Shards))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(meta.Theta))
	binary.LittleEndian.PutUint32(buf[walFixedHeaderSize:], uint32(len(meta.Profile)))
	return append(buf, meta.Profile...), nil
}

func (w *WAL) writeHeader(meta Meta) error {
	buf, err := headerBytes(meta)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.hdrSize = int64(len(buf))
	return w.f.Sync()
}

// maxKeptEncode bounds the encode buffer a WAL keeps between appends:
// an ordinary batch reuses it, while the frame of a large one (a routed
// create's first upsert) is dropped with its append.
const maxKeptEncode = 64 << 10

// Append logs one upsert batch. Under SyncAlways the record is fsynced
// before Append returns; the caller may then acknowledge the upsert,
// knowing replay will reproduce it after any crash.
func (w *WAL) Append(tuples []relation.Tuple) error {
	if w.poisoned != nil {
		return fmt.Errorf("store: WAL poisoned by an earlier I/O failure (%v): the log's on-disk tail is unknowable, appends are refused until a successful checkpoint resets it or the index is reopened", w.poisoned)
	}
	t0 := time.Now()
	n := 1 + 4
	for _, t := range tuples {
		n += 8 + 4 + len(t.Key) + 4 + 4*len(t.Attrs)
		for _, a := range t.Attrs {
			n += len(a)
		}
	}
	if n > maxWALPayload {
		return fmt.Errorf("store: upsert batch encodes to %d bytes, over the WAL frame cap", n)
	}
	p := slices.Grow(w.enc[:0], n)
	p = append(p, walKindUpsert)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(tuples)))
	for _, t := range tuples {
		p = binary.LittleEndian.AppendUint64(p, uint64(int64(t.ID)))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(t.Key)))
		p = append(p, t.Key...)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(t.Attrs)))
		for _, a := range t.Attrs {
			p = binary.LittleEndian.AppendUint32(p, uint32(len(a)))
			p = append(p, a...)
		}
	}
	if cap(p) <= maxKeptEncode {
		w.enc = p
	} else {
		w.enc = nil // a bulk load's frame is not held for the index's life
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(p, castagnoli))
	// One writev-shaped append: header then payload. A crash between the
	// two writes leaves a torn tail that replay drops. A *failed* write
	// is worse than a crash: the process lives on with partial frame
	// bytes possibly on disk, where a retried append would extend them
	// into a frame whose length prefix lies — so any failure here
	// poisons the log (see WAL.poisoned).
	if _, err := w.f.Write(hdr[:]); err != nil {
		w.poisoned = err
		return fmt.Errorf("store: WAL append failed mid-frame, log poisoned: %w", err)
	}
	if _, err := w.f.Write(p); err != nil {
		w.poisoned = err
		return fmt.Errorf("store: WAL append failed mid-frame, log poisoned: %w", err)
	}
	if w.sync == SyncAlways {
		ts := time.Now()
		if err := w.f.Sync(); err != nil {
			w.poisoned = err
			return fmt.Errorf("store: WAL fsync failed, log poisoned: %w", err)
		}
		w.fsyncNanos += time.Since(ts).Nanoseconds()
	}
	w.records++
	w.appends++
	w.appendNanos += time.Since(t0).Nanoseconds()
	return nil
}

// Records is the number of intact frames currently in the log.
func (w *WAL) Records() int64 { return w.records }

// Reset truncates the log back to its header — called after a snapshot
// has captured everything the log held, making those frames redundant.
// A successful Reset also clears poisoning: the unknowable tail a
// poisoned log carried is discarded wholesale, so the file is clean
// again (this is the recovery path — a checkpoint after a poisoned
// append writes the acknowledged state to the snapshot and Reset makes
// the log trustworthy again).
func (w *WAL) Reset() error {
	if err := w.f.Truncate(w.hdrSize); err != nil {
		w.poisoned = err
		return err
	}
	if _, err := w.f.Seek(w.hdrSize, io.SeekStart); err != nil {
		w.poisoned = err
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.poisoned = err
		return err
	}
	w.records = 0
	w.poisoned = nil
	return nil
}

// Poisoned returns the I/O failure that poisoned the log, nil when the
// log is healthy.
func (w *WAL) Poisoned() error { return w.poisoned }

// Close flushes and closes the log file.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

type walDecoded struct {
	meta    Meta
	batches [][]relation.Tuple
	good    int
	torn    bool
	hdrSize int
}

// decodeWALBytes parses a WAL image: header, then frames until the
// bytes run out. An incomplete trailing frame is reported as torn (good
// marks the last intact boundary); a complete frame that fails its CRC
// or its structural bounds is an error. Shared by OpenWALFS and
// FuzzWALReplay, so it must never panic on hostile input.
func decodeWALBytes(data []byte) (*walDecoded, error) {
	if len(data) < walFixedHeaderSize {
		return nil, fmt.Errorf("%w: WAL of %d bytes is shorter than its %d-byte header", ErrCorrupt, len(data), walFixedHeaderSize)
	}
	if string(data[:8]) != string(walMagic[:]) {
		return nil, fmt.Errorf("%w: WAL magic mismatch (not an adaptivelink WAL?)", ErrCorrupt)
	}
	version := binary.LittleEndian.Uint32(data[8:])
	if version != 1 && version != WALVersion {
		return nil, fmt.Errorf("store: WAL format version %d, this build reads versions 1..%d", version, WALVersion)
	}
	dec := &walDecoded{
		meta: Meta{
			Q:       int(binary.LittleEndian.Uint32(data[12:])),
			Measure: simfn.TokenMeasure(binary.LittleEndian.Uint32(data[16:])),
			Shards:  int(binary.LittleEndian.Uint32(data[20:])),
			Theta:   math.Float64frombits(binary.LittleEndian.Uint64(data[24:])),
		},
		hdrSize: walFixedHeaderSize,
	}
	if version >= 2 {
		// v2 header continues with the normalization profile string.
		if len(data) < walFixedHeaderSize+4 {
			return nil, fmt.Errorf("%w: v2 WAL header truncated before its profile length", ErrCorrupt)
		}
		plen := int(binary.LittleEndian.Uint32(data[walFixedHeaderSize:]))
		if plen > maxProfileLen {
			return nil, fmt.Errorf("%w: WAL header claims a %d-byte profile name, cap is %d", ErrCorrupt, plen, maxProfileLen)
		}
		if len(data) < walFixedHeaderSize+4+plen {
			return nil, fmt.Errorf("%w: v2 WAL header truncated inside its profile name", ErrCorrupt)
		}
		dec.meta.Profile = string(data[walFixedHeaderSize+4 : walFixedHeaderSize+4+plen])
		dec.hdrSize = walFixedHeaderSize + 4 + plen
	}
	dec.good = dec.hdrSize
	off := dec.hdrSize
	for off < len(data) {
		if len(data)-off < 8 {
			dec.torn = true
			break
		}
		plen := int(binary.LittleEndian.Uint32(data[off:]))
		if plen > maxWALPayload {
			return nil, fmt.Errorf("%w: WAL frame at offset %d claims %d bytes, over the frame cap", ErrCorrupt, off, plen)
		}
		if len(data)-off-8 < plen {
			dec.torn = true
			break
		}
		wantCRC := binary.LittleEndian.Uint32(data[off+4:])
		payload := data[off+8 : off+8+plen]
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			return nil, fmt.Errorf("%w: WAL frame at offset %d checksum %08x, frame claims %08x (bit-flipped?)", ErrCorrupt, off, got, wantCRC)
		}
		batch, err := decodeUpsertPayload(payload)
		if err != nil {
			return nil, fmt.Errorf("WAL frame at offset %d: %w", off, err)
		}
		dec.batches = append(dec.batches, batch)
		off += 8 + plen
		dec.good = off
	}
	return dec, nil
}

func decodeUpsertPayload(payload []byte) ([]relation.Tuple, error) {
	r := &reader{data: payload}
	if kind := r.take(1); r.err == nil && kind[0] != walKindUpsert {
		return nil, fmt.Errorf("%w: unknown WAL record kind %d", ErrCorrupt, kind[0])
	}
	n := r.count("tuple")
	if r.err != nil {
		return nil, r.err
	}
	batch := make([]relation.Tuple, 0, n)
	for i := 0; i < n; i++ {
		var t relation.Tuple
		t.ID = int(r.i64())
		t.Key = string(r.take(int(r.u32())))
		attrs := r.count("attr")
		if r.err != nil {
			return nil, r.err
		}
		if attrs > 0 {
			t.Attrs = make([]string, attrs)
			for j := range t.Attrs {
				t.Attrs[j] = string(r.take(int(r.u32())))
			}
		}
		if r.err != nil {
			return nil, r.err
		}
		batch = append(batch, t)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes in WAL record", ErrCorrupt, len(payload)-r.off)
	}
	return batch, nil
}
