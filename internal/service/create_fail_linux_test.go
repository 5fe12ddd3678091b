//go:build linux

package service

import (
	"net/http"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// withFileSizeLimit runs f with this process's file size limit at limit
// bytes: a write past it fails with EFBIG (the Go runtime ignores the
// SIGXFSZ that comes with it), so a durable create fails at its
// snapshot write, after making its directory.
func withFileSizeLimit(t *testing.T, limit uint64, f func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: old.Max}); err != nil {
		t.Skipf("cannot lower the file size limit: %v", err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old)
	f()
}

// TestFailedCreateRetries: a durable create that fails on disk leaves no
// directory behind, through the handler's streamed path and through
// CreateIndex alike. So a restart finds no index under the name, and the
// same name can be created again at once, without one.
func TestFailedCreateRetries(t *testing.T) {
	dataDir := t.TempDir()
	s := New(Config{DataDir: dataDir})
	defer s.Close()
	h := NewHandler(s)
	req := createRequest(t, "retry", 2000) // a snapshot of ~100 KB
	body := marshal(t, req)
	opts, err := indexOptions(req)
	if err != nil {
		t.Fatal(err)
	}
	creates := map[string]func() error{
		"handler": func() error {
			if code, resp := serveBody(h, "POST", "/v1/indexes", body); code != http.StatusCreated {
				return &httpError{code, string(resp)}
			}
			return nil
		},
		"CreateIndex": func() error {
			_, err := s.CreateIndex(req.Name, opts, publicTuples(req.Tuples))
			return err
		},
	}
	for name, create := range creates {
		var err error
		withFileSizeLimit(t, 4096, func() { err = create() })
		if err == nil {
			t.Fatalf("%s: a create over the file size limit succeeded", name)
		}
		t.Logf("%s: %v", name, err)
		if _, err := os.Stat(filepath.Join(dataDir, req.Name)); !os.IsNotExist(err) {
			t.Fatalf("%s: the failed create left its directory behind (%v)", name, err)
		}
		restarted := New(Config{DataDir: dataDir})
		names, err := restarted.LoadStored()
		restarted.Close()
		if err != nil || len(names) != 0 {
			t.Fatalf("%s: a restart after the failed create loads %v (%v)", name, names, err)
		}
		if err := create(); err != nil {
			t.Fatalf("%s: the retried create: %v", name, err)
		}
		if code, resp := serveBody(h, "DELETE", "/v1/indexes/retry", nil); code != http.StatusNoContent {
			t.Fatalf("delete: %d %s", code, resp)
		}
	}
}

type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return http.StatusText(e.code) + ": " + e.body }
