// Package service implements the resident linkage service: a registry
// of named resident indexes (adaptivelink.Index), admission control
// that runs each link request on its caller's goroutine once it holds
// one of a bounded number of execution slots, per-request deadlines, a
// Prometheus-style metrics surface and graceful drain. cmd/adaptivelinkd
// exposes it over HTTP/JSON via NewHandler.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adaptivelink"
	"adaptivelink/internal/cluster"
	"adaptivelink/internal/metrics"
	"adaptivelink/internal/obs"
	"adaptivelink/internal/store"
	"adaptivelink/internal/vfs"
)

// Sentinel errors; the HTTP layer maps them to status codes.
var (
	// ErrDraining rejects work admitted after graceful drain began.
	ErrDraining = errors.New("service draining")
	// ErrNotFound marks an unknown index name.
	ErrNotFound = errors.New("index not found")
	// ErrExists marks a create against an existing name.
	ErrExists = errors.New("index already exists")
	// ErrInvalid marks a malformed request.
	ErrInvalid = errors.New("invalid request")
)

var nameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// Config sizes the service. The zero value selects usable defaults.
type Config struct {
	// Workers is the number of execution slots: at most this many link
	// requests execute concurrently, each on its caller's goroutine;
	// the rest wait for a slot until their deadline expires (default
	// max(2, GOMAXPROCS)).
	Workers int
	// DefaultDeadline applies to link requests that set none
	// (default 5s).
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines (default 60s), so a
	// request can never hold its admission reservation unboundedly —
	// the bound graceful shutdown relies on.
	MaxDeadline time.Duration
	// MaxBatch caps the keys of one link request (default 4096).
	MaxBatch int
	// DataDir, when set, makes every index durable: index NAME lives in
	// DataDir/NAME as a binary snapshot plus an upsert write-ahead log,
	// creates bulk-load straight into a snapshot, upserts are logged
	// before they are acknowledged, and LoadStored reopens everything on
	// boot. Empty keeps the service purely in-memory.
	DataDir string
	// WALSync is the write-ahead-log fsync policy for durable indexes
	// (default adaptivelink.SyncAlways).
	WALSync adaptivelink.SyncPolicy
	// Logger receives the service's structured log (nil discards it).
	Logger *slog.Logger
	// Trace configures request tracing and the slow-request log; the
	// zero value samples one request in 16 and flags requests over
	// 500ms (see internal/obs for the knobs).
	Trace obs.Config
	// Cluster, when set, turns the service into the cluster router: index
	// state lives on the cluster's node groups and every create, upsert,
	// probe and snapshot is routed through the fan-out client. A routed
	// service is incompatible with DataDir (durability lives on the
	// nodes).
	Cluster *cluster.Client
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 2 {
			c.Workers = 2
		}
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.DefaultDeadline > c.MaxDeadline {
		c.DefaultDeadline = c.MaxDeadline
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Service is the resident linkage service: named resident indexes
// probed by many concurrent sessions, with admission control, deadlines,
// metrics and graceful drain. All methods are safe for concurrent use.
type Service struct {
	cfg    Config
	start  time.Time
	log    *slog.Logger
	tracer *obs.Tracer

	admit    sync.RWMutex // serialises admission against Drain
	draining bool
	// inflight counts admitted link requests not yet finished; Drain
	// and Close wait on it. slots holds one token per executing request.
	inflight sync.WaitGroup
	slots    chan struct{}
	queued   atomic.Int64
	running  atomic.Int64

	// createMu serialises index creation and deletion end to end, so a
	// lost create race can never remove or overwrite the directory of
	// the index that won it. Lookups and probes never take it. A
	// streamed create decodes its tuples under it, beside its build.
	createMu sync.Mutex

	mu      sync.RWMutex
	indexes map[string]*managedIndex

	// linkRequests counts link requests by outcome (linkOutcomes order);
	// batchRequests counts the admitted ones that carried more than one
	// key, and batchSize their keys-per-request distribution.
	linkRequests  [len(linkOutcomes)]atomic.Int64
	batchRequests atomic.Int64
	batchSize     *metrics.Histogram
	// linkLatency covers an admitted link request end to end (queue wait
	// plus execution); queueWait isolates the admission-to-slot slice,
	// including a wait that ends in deadline expiry.
	// linkbench cross-checks its client-side p99 against linkLatency.
	linkLatency *metrics.Histogram
	queueWait   *metrics.Histogram

	// testProbeDelay, when set (tests only), runs before every probe of
	// a link batch, making slow requests reproducible.
	testProbeDelay func()
}

// managedIndex pairs a resident index with the counts the service
// keeps for it; its other scraped series are read from ix (see
// indexRows).
type managedIndex struct {
	name    string
	ix      *adaptivelink.Index
	created time.Time
	label   string // the index's label pair, index="name"

	mu     sync.Mutex
	counts IndexCounts
}

// count adds d to the index's counts: once per session, create and
// upsert.
func (mi *managedIndex) count(d IndexCounts) {
	mi.mu.Lock()
	c := &mi.counts
	c.Sessions += d.Sessions
	c.Probes += d.Probes
	c.Hits += d.Hits
	c.ExactMatches += d.ExactMatches
	c.ApproxMatches += d.ApproxMatches
	c.Escalations += d.Escalations
	c.Switches += d.Switches
	c.Inserted += d.Inserted
	c.Updated += d.Updated
	c.ModelledCost += d.ModelledCost
	mi.mu.Unlock()
}

// read returns the index's counts as one record.
func (mi *managedIndex) read() IndexCounts {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	return mi.counts
}

// linkOutcomes names the link request outcomes, the code label of
// adaptivelink_link_requests_total.
var linkOutcomes = [...]string{"ok", "deadline", "draining", "invalid", "notfound", "unavailable"}

const (
	outcomeOK = iota
	outcomeDeadline
	outcomeDraining
	outcomeInvalid
	outcomeNotFound
	outcomeUnavailable
)

// New builds a service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	latencyBuckets := []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	return &Service{
		cfg:         cfg,
		slots:       make(chan struct{}, cfg.Workers),
		start:       time.Now(),
		log:         cfg.Logger,
		tracer:      obs.NewTracer(cfg.Trace),
		indexes:     make(map[string]*managedIndex),
		batchSize:   metrics.NewHistogram(1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096),
		linkLatency: metrics.NewHistogram(latencyBuckets...),
		queueWait:   metrics.NewHistogram(latencyBuckets...),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Service) Config() Config { return s.cfg }

// register publishes a built or reloaded index under name.
func (s *Service) register(name string, ix *adaptivelink.Index) *managedIndex {
	mi := &managedIndex{name: name, ix: ix, created: time.Now(), label: fmt.Sprintf("index=%q", name)}
	s.mu.Lock()
	s.indexes[name] = mi
	s.mu.Unlock()
	return mi
}

// VersionInfo is the /v1/version payload.
type VersionInfo struct {
	// Version is the main module's version ("(devel)" for local builds).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit when stamped into the build.
	Revision string `json:"revision,omitempty"`
	// Modified reports uncommitted changes at build time.
	Modified bool `json:"modified,omitempty"`
	// UptimeSeconds is how long this process has served.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// buildVersion reads the binary's build metadata once.
var buildVersion = sync.OnceValue(func() VersionInfo {
	v := VersionInfo{Version: "unknown", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	v.GoVersion = bi.GoVersion
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			v.Revision = kv.Value
		case "vcs.modified":
			v.Modified = kv.Value == "true"
		}
	}
	return v
})

// Version reports build metadata and uptime.
func (s *Service) Version() VersionInfo {
	v := buildVersion()
	v.UptimeSeconds = time.Since(s.start).Seconds()
	return v
}

// ClusterInfo is the /v1/cluster payload: the process role and, for a
// router, the routing table with live replica health.
type ClusterInfo struct {
	// Role is "router" for a fan-out process, "node" otherwise (a plain
	// daemon is a cluster of one from the router's point of view).
	Role string `json:"role"`
	// Shards is the cluster's logical shard count (routers only).
	Shards int `json:"shards,omitempty"`
	// Groups is the shard→node assignment with per-replica health
	// (routers only).
	Groups []cluster.GroupHealth `json:"groups,omitempty"`
	// Indexes lists the routed indexes (routers only).
	Indexes []string `json:"indexes,omitempty"`
}

// Cluster reports the process's cluster role; a router probes every
// replica's health on the way (bounded by ctx).
func (s *Service) Cluster(ctx context.Context) ClusterInfo {
	if s.cfg.Cluster == nil {
		return ClusterInfo{Role: "node"}
	}
	return ClusterInfo{
		Role:    "router",
		Shards:  s.cfg.Cluster.Map().Shards,
		Groups:  s.cfg.Cluster.Health(ctx),
		Indexes: s.cfg.Cluster.Names(),
	}
}

// CreateIndex registers a new resident index built from tuples and
// returns its info as stored (the same CreatedAt later reads report).
// With a data dir configured the index is durable from birth: the
// initial tuples bulk-load straight into a snapshot in DataDir/name
// (never through the log), and every later upsert is logged.
func (s *Service) CreateIndex(name string, opts adaptivelink.IndexOptions, tuples []adaptivelink.Tuple) (IndexInfo, error) {
	return s.create(name, opts, adaptivelink.FromTuples(tuples))
}

// create registers the index build makes under name from src, refusing
// a name that is malformed or taken first. It is the one create, local
// or routed, whether src is complete or still filling in. The name and
// profile are copied: decoded from a request body, they share its
// bytes, which the index must not keep alive.
func (s *Service) create(name string, opts adaptivelink.IndexOptions, src adaptivelink.Source) (IndexInfo, error) {
	name, opts.Profile = strings.Clone(name), strings.Clone(opts.Profile)
	if !nameRe.MatchString(name) {
		return IndexInfo{}, fmt.Errorf("%w: index name %q (want %s)", ErrInvalid, name, nameRe)
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if _, err := s.lookup(name); err == nil {
		return IndexInfo{}, fmt.Errorf("%w: %q", ErrExists, name)
	}
	ix, err := s.build(name, opts, src)
	if errors.Is(err, cluster.ErrNodeUnavailable) || errors.Is(err, ErrExists) {
		return IndexInfo{}, err
	}
	if err != nil {
		return IndexInfo{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	mi := s.register(name, ix)
	mi.count(IndexCounts{Inserted: int64(ix.Len())})
	s.log.Info("created index", "index", name, "tuples", ix.Len(),
		"shards", ix.Options().Shards, "durable", ix.Durable())
	return mi.info(), nil
}

// build builds a new index from src where the service's role puts it:
// a router creates it across the cluster, a node bulk-loads it into the
// storage the service places it in (the service places indexes, not the
// caller).
func (s *Service) build(name string, opts adaptivelink.IndexOptions, src adaptivelink.Source) (*adaptivelink.Index, error) {
	if s.cfg.Cluster != nil {
		return s.cfg.Cluster.CreateIndex(name, opts, src)
	}
	var err error
	if opts.Storage, err = s.placement(name); err != nil {
		return nil, err
	}
	return adaptivelink.BulkLoad(src, opts)
}

// placement is the storage the service gives a new local index, the
// step a bulk load and a resync bootstrap share: the configured WAL sync
// policy and, with a data dir, the index's directory under it — refused
// while a directory of that name survives on disk, one the boot scan did
// not load. The refusal says what frees the name: a restart loads a
// directory holding a stored index, and nothing loads any other one. A
// router places no index locally: its indexes live on the nodes.
func (s *Service) placement(name string) (adaptivelink.StorageOptions, error) {
	st := adaptivelink.StorageOptions{WALSync: s.cfg.WALSync}
	if s.cfg.Cluster != nil {
		return st, fmt.Errorf("%w: a router places no index locally (index %q lives on the nodes)", ErrInvalid, name)
	}
	if s.cfg.DataDir == "" {
		return st, nil
	}
	st.Dir = filepath.Join(s.cfg.DataDir, name)
	if _, err := os.Stat(st.Dir); err != nil {
		return st, nil
	}
	switch stored, err := adaptivelink.IsIndexDir(st.Dir); {
	case err != nil:
		return st, fmt.Errorf("%w: %q (its directory on disk cannot be read as a stored index: %v)", ErrExists, name, err)
	case stored:
		return st, fmt.Errorf("%w: %q (its directory on disk holds a stored index; restart to reload it)", ErrExists, name)
	}
	return st, fmt.Errorf("%w: %q (its directory on disk holds no stored index, so the boot scan does not load it; removing or renaming it frees the name)", ErrExists, name)
}

// LoadStored reopens every index directory under the configured data
// dir — snapshot load plus write-ahead-log replay per index — and
// registers the recovered indexes. Call once on boot, before serving.
// Returns the recovered names, sorted. It also sweeps what a crash can
// leave: tombstones of committed deletes, and directories a create
// made but never committed a snapshot into (empty, or holding only the
// snapshot's temporary files), which would otherwise refuse their name
// for good. Any other directory it does not load stays untouched. A
// routed service refuses a data dir: its indexes live on the nodes.
func (s *Service) LoadStored() ([]string, error) {
	if s.cfg.DataDir == "" {
		return nil, nil
	}
	if s.cfg.Cluster != nil {
		return nil, fmt.Errorf("%w: a routed service has no data dir (durability lives on the nodes)", ErrInvalid)
	}
	entries, err := os.ReadDir(s.cfg.DataDir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	var names []string
	for _, e := range entries {
		name, dir := e.Name(), filepath.Join(s.cfg.DataDir, e.Name())
		if e.IsDir() && (strings.HasPrefix(name, tombstonePrefix) || nameRe.MatchString(name) && uncommittedCreate(dir)) {
			if err := os.RemoveAll(dir); err != nil {
				s.log.Warn("removing a crash's leftover directory", "dir", dir, "error", err)
			} else {
				s.log.Info("removed a crash's leftover directory", "dir", dir)
			}
			continue
		}
		if !e.IsDir() || !nameRe.MatchString(name) {
			continue
		}
		stored, err := adaptivelink.IsIndexDir(dir)
		if err != nil {
			return names, fmt.Errorf("loading %s: %w", dir, err)
		}
		if !stored {
			continue // not ours: no snapshot, no log
		}
		t0 := time.Now()
		ix, err := adaptivelink.Open(dir, adaptivelink.IndexOptions{
			Storage: adaptivelink.StorageOptions{WALSync: s.cfg.WALSync},
		})
		if err != nil {
			return names, fmt.Errorf("loading %s: %w", dir, err)
		}
		ri := ix.RecoveryInfo()
		if ri.TornTailTruncated {
			// A crash mid-append left a partial frame; recovery dropped it
			// and truncated the log to its intact prefix. Worth a warning:
			// the final unacknowledged batch (at most one) is gone.
			s.log.Warn("wal torn tail truncated", "index", name, "dir", dir,
				"replayed_batches", ri.WALBatchesReplayed)
		}
		s.log.Info("reloaded index", "index", name, "tuples", ix.Len(),
			"snapshot_tuples", ri.SnapshotTuples, "wal_batches", ri.WALBatchesReplayed,
			"duration", time.Since(t0).Round(time.Millisecond))
		s.register(name, ix)
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// uncommittedCreate reports whether dir holds nothing but what a create
// killed before its snapshot's rename leaves: the snapshot's temporary
// files, or nothing at all.
func uncommittedCreate(dir string) bool {
	entries, err := os.ReadDir(dir)
	tmps, _ := filepath.Glob(filepath.Join(dir, store.SnapshotFile+".tmp*"))
	return err == nil && len(entries) == len(tmps)
}

// SnapshotIndex checkpoints a durable index in place: its current state
// replaces the snapshot atomically and the now-redundant log is reset,
// making the next boot a pure snapshot load. Invalid for in-memory
// indexes.
func (s *Service) SnapshotIndex(name string) (IndexInfo, error) {
	mi, err := s.lookup(name)
	if err != nil {
		return IndexInfo{}, err
	}
	if s.cfg.Cluster != nil {
		// Routed: checkpoint every replica of every group in place.
		t0 := time.Now()
		if err := s.cfg.Cluster.SnapshotIndex(name); err != nil {
			return IndexInfo{}, err
		}
		s.log.Info("checkpointed cluster index", "index", name, "tuples", mi.ix.Len(),
			"duration", time.Since(t0).Round(time.Millisecond))
		return mi.info(), nil
	}
	if !mi.ix.Durable() {
		return IndexInfo{}, fmt.Errorf("%w: index %q is in-memory (start the server with a data dir for durable indexes)", ErrInvalid, name)
	}
	t0 := time.Now()
	if err := mi.ix.Save(""); err != nil {
		return IndexInfo{}, closedAsGone(name, err)
	}
	s.log.Info("checkpointed index", "index", name, "tuples", mi.ix.Len(),
		"duration", time.Since(t0).Round(time.Millisecond))
	return mi.info(), nil
}

// DigestIndex fingerprints the named index's content for replica
// comparison. Nodes only: a router's index holds no replica state of
// its own, and the facade refuses to digest it.
func (s *Service) DigestIndex(name string) (adaptivelink.IndexDigest, error) {
	mi, err := s.lookup(name)
	if err != nil {
		return adaptivelink.IndexDigest{}, err
	}
	d, err := mi.ix.Digest()
	if err != nil {
		return adaptivelink.IndexDigest{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return d, nil
}

// ExportIndex streams the named index's state in the snapshot format —
// the sending half of a replica resync. Nodes only: the facade refuses
// to export a router's index, which answers as invalid; a failure to
// encode or write the snapshot is passed on as it is.
func (s *Service) ExportIndex(name string, w io.Writer) error {
	mi, err := s.lookup(name)
	if err != nil {
		return err
	}
	err = mi.ix.ExportSnapshotTo(w)
	if errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return err
}

// ResyncIndex replaces the named index's content wholesale with the
// given snapshot bytes (as exported from a healthy replica) — the
// receiving half of anti-entropy repair. An index the node does not
// have yet is bootstrapped from the snapshot (a replacement replica
// arrives blank), adopting the snapshot's stored configuration; with a
// data dir it is persisted before it starts serving. Nodes only: the
// facade refuses to restore a router's index, and a router places none.
func (s *Service) ResyncIndex(name string, data []byte) (IndexInfo, error) {
	if !nameRe.MatchString(name) {
		return IndexInfo{}, fmt.Errorf("%w: index name %q (want %s)", ErrInvalid, name, nameRe)
	}
	s.createMu.Lock()
	defer s.createMu.Unlock()
	if mi, err := s.lookup(name); err == nil {
		t0 := time.Now()
		if err := mi.ix.RestoreSnapshot(data); errors.Is(err, adaptivelink.ErrIndexClosed) {
			return IndexInfo{}, closedAsGone(name, err)
		} else if err != nil {
			return IndexInfo{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		s.log.Info("resynced index", "index", name, "tuples", mi.ix.Len(),
			"duration", time.Since(t0).Round(time.Millisecond))
		return mi.info(), nil
	}
	t0 := time.Now()
	storage, err := s.placement(name)
	if err != nil {
		return IndexInfo{}, err
	}
	ix, err := adaptivelink.ImportSnapshot(data, adaptivelink.IndexOptions{Storage: storage})
	if err != nil {
		return IndexInfo{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	mi := s.register(name, ix)
	s.log.Info("bootstrapped index from resync", "index", name, "tuples", ix.Len(),
		"durable", ix.Durable(), "duration", time.Since(t0).Round(time.Millisecond))
	return mi.info(), nil
}

func (mi *managedIndex) info() IndexInfo {
	info := IndexInfo{
		Name: mi.name, Size: mi.ix.Len(), Shards: mi.ix.Options().Shards, CreatedAt: mi.created,
		Profile: mi.ix.Options().Profile,
		Durable: mi.ix.Durable(), WALRecords: mi.ix.WALRecords(),
	}
	if t := mi.ix.LastSnapshot(); !t.IsZero() {
		info.LastSnapshot = &t
	}
	return info
}

// DeleteIndex removes an index and its exported metric series (a
// recreated index starts its counters from zero); in-flight sessions
// on it complete against the released object. A durable index's
// directory is deleted with it — DELETE means the data, not just the
// registration — and the delete commits when bury's rename does. What
// can fail is torn down first and the index is unregistered only on
// success: after a failed delete (a node group below quorum, a rename
// or sync that failed) it is still listed and the DELETE can be
// retried. A committed delete whose tombstone cannot be removed still
// succeeds; the failure is logged and the next boot removes it.
func (s *Service) DeleteIndex(name string) error {
	s.createMu.Lock()
	defer s.createMu.Unlock()
	mi, err := s.lookup(name)
	if err != nil {
		return err
	}
	tomb := filepath.Join(s.cfg.DataDir, tombstonePrefix+name)
	switch {
	case s.cfg.Cluster != nil:
		err = s.cfg.Cluster.DeleteIndex(name)
	case mi.ix.Durable():
		if err = mi.ix.Close(); err == nil {
			err = bury(filepath.Join(s.cfg.DataDir, name), tomb)
		}
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.indexes, name)
	s.mu.Unlock()
	if mi.ix.Durable() {
		if err := os.RemoveAll(tomb); err != nil {
			s.log.Warn("removing deleted index's directory", "index", name, "error", err)
		}
	}
	s.log.Info("deleted index", "index", name, "durable", mi.ix.Durable())
	return nil
}

// tombstonePrefix names a deleted durable index's directory between the
// rename that commits its DELETE and its removal. nameRe never matches
// it, so the boot scan never loads a tombstone; it removes them.
const tombstonePrefix = ".deleted-"

// bury commits the delete of the durable index in dir: dir is renamed to
// tomb (a stale tomb removed first) and the rename made durable, so after
// a crash the index's name holds either the whole index or nothing, never
// its snapshot or its log alone. A failed sync renames dir back, leaving
// the DELETE to retry.
func bury(dir, tomb string) error {
	if err := os.RemoveAll(tomb); err != nil {
		return err
	}
	if err := os.Rename(dir, tomb); os.IsNotExist(err) {
		return nil // removed by hand: nothing left to bury
	} else if err != nil {
		return err
	}
	if err := vfs.OS.SyncDir(filepath.Dir(dir)); err != nil {
		return errors.Join(err, os.Rename(tomb, dir))
	}
	return nil
}

// Upsert applies reference maintenance to the named index at a
// quiescent point (no probe observes a half-applied batch).
func (s *Service) Upsert(name string, tuples []adaptivelink.Tuple) (inserted, updated int, err error) {
	mi, err := s.lookup(name)
	if err != nil {
		return 0, 0, err
	}
	inserted, updated, err = mi.ix.Upsert(tuples...)
	if err != nil {
		return 0, 0, closedAsGone(name, err)
	}
	mi.count(IndexCounts{Inserted: int64(inserted), Updated: int64(updated)})
	return inserted, updated, nil
}

// closedAsGone answers a write that found its index closed as one that
// found no index: DeleteIndex closes an index before its delete
// commits, and a delete that failed after the close leaves it closed.
// Once the delete commits, the same write answers not found.
func closedAsGone(name string, err error) error {
	if errors.Is(err, adaptivelink.ErrIndexClosed) {
		return fmt.Errorf("%w: index %q is being deleted", ErrNotFound, name)
	}
	return err
}

func (s *Service) lookup(name string) (*managedIndex, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	mi, ok := s.indexes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return mi, nil
}

// IndexInfo describes one registered index. Durable, WALRecords and
// LastSnapshot surface the persistence state: whether the index is
// backed by storage, how many upsert batches the write-ahead log holds
// beyond the snapshot, and when that snapshot was written (absent until
// the first checkpoint).
type IndexInfo struct {
	Name         string     `json:"name"`
	Size         int        `json:"size"`
	Shards       int        `json:"shards"`
	Profile      string     `json:"profile,omitempty"`
	CreatedAt    time.Time  `json:"created_at"`
	Durable      bool       `json:"durable"`
	WALRecords   int64      `json:"wal_records"`
	LastSnapshot *time.Time `json:"last_snapshot,omitempty"`
}

// ListIndexes returns the registered indexes sorted by name.
func (s *Service) ListIndexes() []IndexInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]IndexInfo, 0, len(s.indexes))
	for _, mi := range s.indexes {
		out = append(out, mi.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// GetIndex returns one index's info.
func (s *Service) GetIndex(name string) (IndexInfo, error) {
	mi, err := s.lookup(name)
	if err != nil {
		return IndexInfo{}, err
	}
	return mi.info(), nil
}

// LinkRequest is one probe batch: a single key or many, executed as one
// session so the adaptive statistics accumulate across the batch.
type LinkRequest struct {
	Index    string
	Keys     []string
	Strategy string // "", "adaptive", "exact", "approximate"
	// FutilityK configures the session's futility revert (0 = off);
	// recommended for open-world probe streams.
	FutilityK int
	// Timeout is the per-request deadline (0 = service default). It
	// covers queue wait and execution.
	Timeout time.Duration
	// Explain captures per-key decision traces (mode used, escalation,
	// the controller's activations with observed/expected hits and
	// reasons). It allocates per probe; leave off on hot paths.
	Explain bool
}

// LinkResponse carries per-key matches (parallel to the request keys)
// plus the session's statistics. Decisions is populated only for
// explain requests, parallel to Results.
type LinkResponse struct {
	Results   [][]adaptivelink.ProbeMatch
	Session   adaptivelink.SessionStats
	Decisions []adaptivelink.KeyDecision
}

// ParseStrategy maps the wire strategy names to the public enum.
func ParseStrategy(s string) (adaptivelink.Strategy, error) {
	switch s {
	case "", "adaptive":
		return adaptivelink.Adaptive, nil
	case "exact":
		return adaptivelink.ExactOnly, nil
	case "approximate":
		return adaptivelink.ApproximateOnly, nil
	default:
		return 0, fmt.Errorf("%w: unknown strategy %q (want adaptive, exact or approximate)", ErrInvalid, s)
	}
}

// linkChunk is the number of keys a link batch probes between deadline
// checks: big enough to amortise routing and snapshot loads, small
// enough that an expired request aborts promptly.
const linkChunk = 256

// Link runs one probe batch on the calling goroutine once it holds one
// of the Workers execution slots. Deadline expiry while waiting for a
// slot rejects the request without opening a session; expiry mid-batch
// aborts with context.DeadlineExceeded.
func (s *Service) Link(ctx context.Context, req LinkRequest) (*LinkResponse, error) {
	strategy, err := ParseStrategy(req.Strategy)
	switch {
	case err != nil:
	case len(req.Keys) == 0:
		err = fmt.Errorf("%w: no keys", ErrInvalid)
	case len(req.Keys) > s.cfg.MaxBatch:
		err = fmt.Errorf("%w: batch of %d keys exceeds limit %d", ErrInvalid, len(req.Keys), s.cfg.MaxBatch)
	case req.FutilityK < 0:
		err = fmt.Errorf("%w: negative futility threshold %d", ErrInvalid, req.FutilityK)
	}
	if err != nil {
		s.linkRequests[outcomeInvalid].Add(1)
		return nil, err
	}
	mi, err := s.lookup(req.Index)
	if err != nil {
		s.linkRequests[outcomeNotFound].Add(1)
		return nil, err
	}

	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultDeadline
	}
	if timeout > s.cfg.MaxDeadline {
		timeout = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Routed mode: bind a request-scoped cluster view — it inherits the
	// request budget (per-node deadlines derive from ctx) and carries the
	// fan-out's sticky transport error — and run the standard session
	// machinery over it.
	ix := mi.ix
	var view *cluster.View
	if s.cfg.Cluster != nil {
		view, err = s.cfg.Cluster.Bind(ctx, req.Index)
		if err != nil {
			s.linkRequests[outcomeNotFound].Add(1)
			return nil, fmt.Errorf("%w: %q", ErrNotFound, req.Index)
		}
		ix = mi.ix.WithResident(view)
	}

	// Tracing: tr is nil for unsampled requests; every use below is
	// nil-safe and allocation-free in that case.
	tr := obs.TraceFrom(ctx)
	tr.SetTarget(req.Index, len(req.Keys))

	// Admission: register with the drain accounting under the read side
	// of the drain lock, so Drain can never observe a moment where an
	// admitted request is invisible to its wait.
	s.admit.RLock()
	if s.draining {
		s.admit.RUnlock()
		s.linkRequests[outcomeDraining].Add(1)
		return nil, ErrDraining
	}
	s.inflight.Add(1)
	s.admit.RUnlock()
	defer s.inflight.Done()

	// Wait for an execution slot. A slot that arrives after the deadline
	// is handed straight back: the request fails without opening a
	// session.
	admitted := time.Now()
	s.queued.Add(1)
	select {
	case s.slots <- struct{}{}:
		if err = ctx.Err(); err != nil {
			<-s.slots
		}
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.queued.Add(-1)
	wait := time.Since(admitted)
	s.queueWait.Observe(wait.Seconds())
	tr.AddSpanDur("queue", admitted, wait)

	var resp *LinkResponse
	if err == nil {
		s.running.Add(1)
		resp, err = s.runLink(ctx, tr, mi, ix, view, strategy, req)
		s.running.Add(-1)
		<-s.slots
	}
	s.linkLatency.Observe(time.Since(admitted).Seconds())
	switch {
	case err == nil:
		s.linkRequests[outcomeOK].Add(1)
		return resp, nil
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.linkRequests[outcomeDeadline].Add(1)
		s.log.Warn("link deadline exceeded", "request_id", obs.RequestID(ctx),
			"index", req.Index, "keys", len(req.Keys), "timeout", timeout)
		return nil, fmt.Errorf("link %q: %w", req.Index, err)
	case errors.Is(err, cluster.ErrNodeUnavailable):
		s.linkRequests[outcomeUnavailable].Add(1)
		s.log.Warn("link node unavailable", "request_id", obs.RequestID(ctx),
			"index", req.Index, "keys", len(req.Keys), "error", err)
		return nil, err
	default:
		s.linkRequests[outcomeInvalid].Add(1)
		return nil, err
	}
}

// runLink opens one session over ix and probes the batch in chunks; the
// caller holds an execution slot.
func (s *Service) runLink(ctx context.Context, tr *obs.Trace, mi *managedIndex, ix *adaptivelink.Index,
	view *cluster.View, strategy adaptivelink.Strategy, req LinkRequest) (*LinkResponse, error) {
	ss := time.Now()
	sess, err := ix.NewSession(adaptivelink.SessionOptions{
		Strategy:  strategy,
		FutilityK: req.FutilityK,
		Explain:   req.Explain,
	})
	tr.AddSpan("session", ss)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	s.batchSize.Observe(float64(len(req.Keys)))
	if len(req.Keys) > 1 {
		s.batchRequests.Add(1)
	}
	// The batch runs through Session.ProbeBatch — routing and snapshot
	// loads amortised per shard-group, groups fanned out concurrently
	// inside this one execution slot — in chunks, so a request whose
	// deadline expires mid-batch is aborted between chunks and never
	// reported complete with partial results.
	chunk := linkChunk
	if s.testProbeDelay != nil {
		chunk = 1 // per-probe delay injection for deadline tests
	}
	// A one-chunk request answers with its chunk's slice as is; a longer
	// one copies each chunk's into one.
	var results [][]adaptivelink.ProbeMatch
	if len(req.Keys) > chunk {
		results = make([][]adaptivelink.ProbeMatch, len(req.Keys))
	}
	for lo := 0; lo < len(req.Keys); lo += chunk {
		if err = ctx.Err(); err != nil {
			break
		}
		if s.testProbeDelay != nil {
			s.testProbeDelay()
		}
		hi := min(lo+chunk, len(req.Keys))
		cs := time.Now()
		if batch := sess.ProbeBatch(req.Keys[lo:hi]); results == nil {
			results = batch
		} else {
			copy(results[lo:hi], batch)
		}
		tr.AddSpan("probe", cs)
		// A routed chunk that lost a node group mid-fan-out recorded the
		// failure on the view; fail the batch as a whole — never a
		// silent partial result.
		if view != nil {
			if err = view.TransportErr(); err != nil {
				break
			}
		}
	}
	st := sess.Stats()
	mi.count(IndexCounts{
		Sessions: 1, Probes: int64(st.Probes), Hits: int64(st.Hits),
		ExactMatches: int64(st.ExactMatches), ApproxMatches: int64(st.ApproxMatches),
		Escalations: int64(st.Escalations), Switches: int64(st.Switches),
		ModelledCost: st.ModelledCost,
	})
	if err != nil {
		return nil, err
	}
	return &LinkResponse{Results: results, Session: st, Decisions: sess.Decisions()}, nil
}

// Draining reports whether graceful drain has begun.
func (s *Service) Draining() bool {
	s.admit.RLock()
	defer s.admit.RUnlock()
	return s.draining
}

// Drain begins graceful shutdown: new link requests are rejected with
// ErrDraining, and Drain returns once every admitted request has
// finished — zero dropped responses — or ctx expires.
func (s *Service) Drain(ctx context.Context) error {
	s.stopAdmission()
	s.log.Info("drain started", "queued", s.queued.Load(), "running", s.running.Load())
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		s.log.Warn("drain aborted", "error", err)
	} else {
		s.log.Info("drain complete")
	}
	return err
}

// stopAdmission makes every later Link fail with ErrDraining.
func (s *Service) stopAdmission() {
	s.admit.Lock()
	s.draining = true
	s.admit.Unlock()
}

// Close stops admitting link requests, waits for every admitted one to
// finish — each carries a deadline capped at MaxDeadline, which bounds
// the wait — and closes every durable index (flushing their logs;
// checkpoints are left to explicit snapshot requests, so restart cost
// is bounded by the log replay). Call after Drain.
func (s *Service) Close() {
	s.stopAdmission()
	s.inflight.Wait()
	if s.cfg.Cluster != nil {
		// Stop the router's background goroutines (hint drainers, the
		// health prober, anti-entropy) before tearing indexes down.
		s.cfg.Cluster.Close()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, mi := range s.indexes {
		mi.ix.Close()
	}
}

// IndexStats is the per-index slice of a Snapshot.
type IndexStats struct {
	IndexInfo
	IndexCounts
}

// IndexCounts is what the service counts per index since it was
// registered: sessions opened, their probes, hits, result pairs,
// escalations, switches and modelled cost, and the tuples creates and
// upserts applied. /v1/stats and /metrics read the same record.
type IndexCounts struct {
	Sessions      int64   `json:"sessions"`
	Probes        int64   `json:"probes"`
	Hits          int64   `json:"hits"`
	ExactMatches  int64   `json:"exact_matches"`
	ApproxMatches int64   `json:"approx_matches"`
	Escalations   int64   `json:"escalations"`
	Switches      int64   `json:"switches"`
	Inserted      int64   `json:"inserted"`
	Updated       int64   `json:"updated"`
	ModelledCost  float64 `json:"modelled_cost"`
}

// Snapshot is the /v1/stats payload. QueueDepth is always 0: a link
// request waits for an execution slot on its own goroutine, so no queue
// bounds the waiters; the key stays because v1 never removes a field.
type Snapshot struct {
	UptimeSeconds float64      `json:"uptime_seconds"`
	Draining      bool         `json:"draining"`
	Workers       int          `json:"workers"`
	QueueDepth    int          `json:"queue_depth"`
	Queued        int64        `json:"queued"`
	Running       int64        `json:"running"`
	Indexes       []IndexStats `json:"indexes"`
}

// Snapshot returns a view of the service counters for diagnostics: the
// service-wide ones are read individually, each index's counts as one
// record.
func (s *Service) Snapshot() Snapshot {
	snap := Snapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Draining:      s.Draining(),
		Workers:       s.cfg.Workers,
		Queued:        s.queued.Load(),
		Running:       s.running.Load(),
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, mi := range s.indexes {
		snap.Indexes = append(snap.Indexes, IndexStats{IndexInfo: mi.info(), IndexCounts: mi.read()})
	}
	sort.Slice(snap.Indexes, func(i, j int) bool { return snap.Indexes[i].Name < snap.Indexes[j].Name })
	return snap
}
