package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// daemonFlags are the fixed conditions every child daemon runs under.
var daemonFlags = []string{"-workers", "2", "-trace-sample", "0", "-slow-threshold", "0"}

// daemon is one adaptivelinkd child process. A durable daemon keeps its
// data dir and its port across kill/restart, so a router that was told
// the address keeps finding it.
type daemon struct {
	name    string
	bin     string
	args    []string // role flags: -data-dir …, or -cluster …
	dir     string   // scratch dir for the addr file
	dataDir string   // "" for a router
	log     *os.File

	cmd     *exec.Cmd
	addr    string    // host:port, fixed after the first start
	started time.Time // exec time of the current incarnation
	peakKB  int64     // largest VmHWM seen over all incarnations
}

func (d *daemon) url() string { return "http://" + d.addr }

// start execs the daemon. The first start binds an ephemeral port and
// learns it from -addr-file; later starts reuse it.
func (d *daemon) start() error {
	addrFile := filepath.Join(d.dir, d.name+".addr")
	listen := d.addr
	if listen == "" {
		listen = "127.0.0.1:0"
		os.Remove(addrFile)
	}
	args := append([]string{"-addr", listen, "-addr-file", addrFile}, daemonFlags...)
	args = append(args, d.args...)
	cmd := exec.Command(d.bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = d.log, d.log
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", d.name, err)
	}
	d.cmd = cmd
	if d.addr != "" {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			d.addr = strings.TrimSpace(string(raw))
			return nil
		}
		if err := d.exited(); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s: no address after 30s", d.name)
}

// exited reports a daemon that died on its own (a zombie until reaped).
func (d *daemon) exited() error {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err == nil {
		if i := bytes.LastIndexByte(raw, ')'); i < 0 || i+2 >= len(raw) || raw[i+2] != 'Z' {
			return nil
		}
	}
	return fmt.Errorf("%s exited early; see %s", d.name, d.log.Name())
}

// waitAnswer polls the daemon until it answers body on path with a 2xx
// and returns that moment.
func (d *daemon) waitAnswer(hc *http.Client, path string, body []byte) (time.Time, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Post(d.url()+path, "application/json", bytes.NewReader(body))
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code/100 == 2 {
				return time.Now(), nil
			}
			return time.Time{}, fmt.Errorf("%s answered %d on %s", d.name, code, path)
		}
		if err := d.exited(); err != nil {
			return time.Time{}, err
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Time{}, fmt.Errorf("%s: no answer on %s after 60s", d.name, path)
}

// kill SIGKILLs the daemon and reaps it, keeping its peak RSS.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	if kb := vmHWM(d.cmd.Process.Pid); kb > d.peakKB {
		d.peakKB = kb
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.cmd = nil
}

// vmHWM reads a process's peak resident set size in kB (0 if unknown).
func vmHWM(pid int) int64 {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// fleet is one workload's set of daemons: the data-holding nodes and,
// for a routed workload, the router in front of them.
type fleet struct {
	dir    string // scratch root, removed on close
	nodes  []*daemon
	router *daemon
}

// entry is the daemon the clients talk to.
func (f *fleet) entry() *daemon {
	if f.router != nil {
		return f.router
	}
	return f.nodes[0]
}

func (f *fleet) all() []*daemon {
	if f.router != nil {
		return append(append([]*daemon(nil), f.nodes...), f.router)
	}
	return f.nodes
}

// startFleet starts the workload's daemons in a fresh scratch dir under
// outDir. Daemon output goes to outDir/<label>.<daemon>.log, kept when
// the run fails.
func startFleet(bin, outDir, label string, routed bool) (*fleet, error) {
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	live.add(f)
	newDaemon := func(name string, args ...string) (*daemon, error) {
		log, err := os.Create(filepath.Join(outDir, label+"."+name+".log"))
		if err != nil {
			return nil, err
		}
		return &daemon{name: name, bin: bin, dir: dir, log: log, args: args}, nil
	}
	nNodes := 1
	if routed {
		nNodes = 2
	}
	for i := 0; i < nNodes; i++ {
		name := "node" + strconv.Itoa(i)
		data := filepath.Join(dir, name+"-data")
		d, err := newDaemon(name, "-data-dir", data, "-wal-sync", "always")
		if err != nil {
			return f, err
		}
		d.dataDir = data
		f.nodes = append(f.nodes, d)
		if err := d.start(); err != nil {
			return f, err
		}
	}
	if routed {
		spec := f.nodes[0].url() + ";" + f.nodes[1].url()
		d, err := newDaemon("router", "-cluster", spec, "-cluster-shards", "8")
		if err != nil {
			return f, err
		}
		f.router = d
		if err := d.start(); err != nil {
			return f, err
		}
	}
	return f, nil
}

// restartNodes SIGKILLs every data-holding daemon, starts them again on
// their data dirs and returns the time from the first exec until the
// last of them answered probe.
func (f *fleet) restartNodes(hc *http.Client, probe []byte) (time.Duration, error) {
	for _, d := range f.nodes {
		d.kill()
	}
	hc.CloseIdleConnections()
	for _, d := range f.nodes {
		if err := d.start(); err != nil {
			return 0, err
		}
	}
	var last time.Time
	for _, d := range f.nodes {
		at, err := d.waitAnswer(hc, "/v1/link", probe)
		if err != nil {
			return 0, err
		}
		if at.After(last) {
			last = at
		}
	}
	return last.Sub(f.nodes[0].started), nil
}

// peakRSSMB sums every daemon's peak resident set, over all of its
// incarnations.
func (f *fleet) peakRSSMB() float64 {
	var kb int64
	for _, d := range f.all() {
		peak := d.peakKB
		if d.cmd != nil {
			if now := vmHWM(d.cmd.Process.Pid); now > peak {
				peak = now
			}
		}
		kb += peak
	}
	return float64(kb) / 1024
}

// storedBytes sums the files under the nodes' data dirs.
func (f *fleet) storedBytes() (int64, error) {
	var total int64
	for _, d := range f.nodes {
		err := filepath.Walk(d.dataDir, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += info.Size()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}

// close kills every daemon and removes the scratch dir. keepLogs leaves
// the daemon logs behind for a failed run.
func (f *fleet) close(keepLogs bool) {
	for _, d := range f.all() {
		d.kill()
		d.log.Close()
		if !keepLogs {
			os.Remove(d.log.Name())
		}
	}
	os.RemoveAll(f.dir)
	live.remove(f)
}

// live tracks the fleets that still own processes, so a signal or a
// fatal error can reap them before the driver exits.
var live fleetSet

type fleetSet struct {
	mu sync.Mutex
	fs []*fleet
}

func (s *fleetSet) add(f *fleet) {
	s.mu.Lock()
	s.fs = append(s.fs, f)
	s.mu.Unlock()
}

func (s *fleetSet) remove(f *fleet) {
	s.mu.Lock()
	for i, g := range s.fs {
		if g == f {
			s.fs = append(s.fs[:i], s.fs[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// closeAll reaps whatever is still running, keeping the logs.
func (s *fleetSet) closeAll() {
	s.mu.Lock()
	fs := append([]*fleet(nil), s.fs...)
	s.mu.Unlock()
	for _, f := range fs {
		f.close(true)
	}
}
