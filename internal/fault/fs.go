// Package fault is the deterministic fault-injection layer: a
// filesystem shim for internal/store (fail the Nth write/fsync/rename,
// torn writes, crash-at-every-write-point sweeps) and an injectable
// http.RoundTripper for the cluster client (drop/delay/black-hole by
// node, path, or request count). Production code holds the interfaces
// (vfs.FS for the store, http.RoundTripper for the client) and never
// imports this package; the injected implementations turn ad-hoc failure
// tests into scripted chaos schedules that replay identically on every
// run.
package fault

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"adaptivelink/internal/vfs"
)

// Op names one write-class filesystem operation for targeted injection.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpTruncate
	OpRename
	OpSyncDir
)

func (op Op) String() string {
	switch op {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpSyncDir:
		return "syncdir"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// ErrCrashed marks every operation attempted after a simulated crash:
// the process is "dead", nothing it does reaches the disk.
var ErrCrashed = errors.New("fault: simulated crash")

// ErrInjected is the default error of a targeted op failure.
var ErrInjected = errors.New("fault: injected I/O failure")

// SimFS is a vfs.FS that wraps the real filesystem with a deterministic
// fault script.
// Two modes compose:
//
//   - CrashAt(n) simulates a process death at the n-th write-class
//     operation (0-based; Write, Sync, Truncate, Rename, SyncDir): that
//     operation and every operation after it fail with ErrCrashed and
//     leave no trace — except a crashing Write with TornBytes(k) set,
//     which persists the first k bytes before dying, modelling a torn
//     sector. Run the same schedule once with no crash to learn the
//     total op count, then sweep every n.
//
//   - FailOp(op, nth, err) fails the nth occurrence (1-based) of one
//     operation kind with err, once, without crashing — the transient
//     -EIO that fsyncgate is made of.
//
// A SimFS is safe for concurrent use, like the filesystem it shims.
type SimFS struct {
	inner vfs.FS

	mu       sync.Mutex
	writeOps int
	crashAt  int // -1: never
	torn     int // -1: crashing write persists nothing
	crashed  bool
	counts   map[Op]int
	rules    []*opRule
}

type opRule struct {
	op   Op
	nth  int
	err  error
	used bool
}

// NewSimFS returns a SimFS over the real filesystem with no faults
// scheduled.
func NewSimFS() *SimFS {
	return &SimFS{inner: vfs.OS, crashAt: -1, torn: -1, counts: make(map[Op]int)}
}

// CrashAt schedules a simulated crash at write-class operation n
// (0-based). Negative cancels.
func (s *SimFS) CrashAt(n int) *SimFS {
	s.mu.Lock()
	s.crashAt = n
	s.mu.Unlock()
	return s
}

// TornBytes makes the crashing operation, when it is a Write, persist
// only the first k bytes — a torn write. Negative (the default)
// persists nothing.
func (s *SimFS) TornBytes(k int) *SimFS {
	s.mu.Lock()
	s.torn = k
	s.mu.Unlock()
	return s
}

// FailOp fails the nth occurrence (1-based) of op with err (ErrInjected
// when err is nil), once, without crashing.
func (s *SimFS) FailOp(op Op, nth int, err error) *SimFS {
	if err == nil {
		err = ErrInjected
	}
	s.mu.Lock()
	s.rules = append(s.rules, &opRule{op: op, nth: nth, err: err})
	s.mu.Unlock()
	return s
}

// WriteOps is the number of write-class operations performed so far —
// run a schedule crash-free and read it to learn the sweep bound.
func (s *SimFS) WriteOps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeOps
}

// Crashed reports whether the scheduled crash has fired.
func (s *SimFS) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// gate accounts one write-class operation and decides its fate:
// (proceed, tornBytes>=0 for a torn crashing write, err to return).
func (s *SimFS) gate(op Op) (torn int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return -1, ErrCrashed
	}
	n := s.writeOps
	s.writeOps++
	s.counts[op]++
	if s.crashAt >= 0 && n >= s.crashAt {
		s.crashed = true
		if op == OpWrite && s.torn >= 0 {
			return s.torn, ErrCrashed
		}
		return -1, ErrCrashed
	}
	for _, r := range s.rules {
		if !r.used && r.op == op && s.counts[op] == r.nth {
			r.used = true
			return -1, r.err
		}
	}
	return -1, nil
}

// dead reports (under lock) whether the crash has fired; non-write ops
// still fail after death — the process is gone.
func (s *SimFS) dead() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

func (s *SimFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if err := s.dead(); err != nil {
		return nil, err
	}
	f, err := s.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &simFile{fs: s, f: f}, nil
}

func (s *SimFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	if err := s.dead(); err != nil {
		return nil, err
	}
	f, err := s.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &simFile{fs: s, f: f}, nil
}

func (s *SimFS) Rename(oldpath, newpath string) error {
	if torn, err := s.gate(OpRename); err != nil {
		_ = torn
		return err
	}
	return s.inner.Rename(oldpath, newpath)
}

func (s *SimFS) Remove(name string) error {
	if err := s.dead(); err != nil {
		return err
	}
	return s.inner.Remove(name)
}

func (s *SimFS) SyncDir(dir string) error {
	if _, err := s.gate(OpSyncDir); err != nil {
		return err
	}
	return s.inner.SyncDir(dir)
}

type simFile struct {
	fs *SimFS
	f  vfs.File
}

func (f *simFile) Read(p []byte) (int, error) {
	if err := f.fs.dead(); err != nil {
		return 0, err
	}
	return f.f.Read(p)
}

func (f *simFile) Write(p []byte) (int, error) {
	torn, err := f.fs.gate(OpWrite)
	if err != nil {
		if torn >= 0 {
			if torn > len(p) {
				torn = len(p)
			}
			// The torn prefix reaches the file; the caller still sees the
			// crash.
			f.f.Write(p[:torn])
		}
		return 0, err
	}
	return f.f.Write(p)
}

func (f *simFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.fs.dead(); err != nil {
		return 0, err
	}
	return f.f.Seek(offset, whence)
}

func (f *simFile) Truncate(size int64) error {
	if _, err := f.fs.gate(OpTruncate); err != nil {
		return err
	}
	return f.f.Truncate(size)
}

func (f *simFile) Sync() error {
	if _, err := f.fs.gate(OpSync); err != nil {
		return err
	}
	return f.f.Sync()
}

func (f *simFile) Close() error {
	if err := f.fs.dead(); err != nil {
		// The real handle still closes (the OS reaps a dead process's
		// descriptors) but the simulated process never sees it succeed.
		f.f.Close()
		return err
	}
	return f.f.Close()
}

func (f *simFile) Name() string { return f.f.Name() }
