// Package vfs is the filesystem seam of the durable store: the slice of
// the filesystem internal/store writes through, and its passthrough
// implementation over the os package. It is a leaf package, so production
// code depends on the seam alone; the crash simulator that implements it
// for tests (fault.SimFS) is linked only by the tests that use it.
package vfs

import (
	"io"
	"os"
)

// FS is the slice of filesystem the store's write path goes through.
// Reads stay on the plain os package — crash injection targets the
// mutation points (write, fsync, truncate, rename, directory sync),
// which are exactly the operations an FS implementation mediates.
type FS interface {
	// OpenFile opens (creating if asked) a file for read/write.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp mirrors os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename mirrors os.Rename.
	Rename(oldpath, newpath string) error
	// Remove mirrors os.Remove.
	Remove(name string) error
	// SyncDir fsyncs a directory, making a rename inside it durable.
	SyncDir(dir string) error
}

// File is the file-handle surface the store uses.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
	Name() string
}

// OS is the passthrough FS backed by the real os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
