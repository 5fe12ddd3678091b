package service

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"adaptivelink"
	"adaptivelink/internal/cluster"
	"adaptivelink/internal/metrics"
)

// Scraped series. /metrics is rendered from the state at scrape: each
// series is declared once, by a row naming it and reading its value from
// where the fact lives — the service's counts, the runtime, a router's
// cluster client, or an index's counts, engine and storage stats — or,
// for the build-info gauge, the link outcomes and the histograms, in
// WriteMetrics itself. No copy of any of them is kept between scrapes,
// so an index's series are exported exactly while it is registered.

// scrape is what one WriteMetrics call reads: the runtime's memory
// statistics and a router's cluster counts once, and per index its
// counts, engine and storage stats once.
type scrape struct {
	s  *Service
	ms runtime.MemStats
	cl cluster.Counts
	ix *adaptivelink.Index
	c  IndexCounts
	es adaptivelink.EngineStats
	st adaptivelink.StorageStats
}

// row is one scraped series: its family's name, help text and kind, the
// series' labels (appended to the index label pair for index rows) and
// its reader.
type row struct {
	name, help, kind, labels string
	read                     func(*scrape) float64
}

// serviceRows are the process-wide series.
var serviceRows = []row{
	{"adaptivelink_link_queued", "Link requests waiting for an execution slot.", "gauge", "", func(r *scrape) float64 { return float64(r.s.queued.Load()) }},
	{"adaptivelink_link_running", "Link requests currently executing.", "gauge", "", func(r *scrape) float64 { return float64(r.s.running.Load()) }},
	{"adaptivelink_link_batch_requests_total", "Admitted link requests carrying more than one key.", "counter", "", func(r *scrape) float64 { return float64(r.s.batchRequests.Load()) }},
	{"adaptivelink_slow_requests_total", "HTTP requests at or over the slow-log threshold.", "counter", "", func(r *scrape) float64 { return float64(r.s.tracer.SlowSeen()) }},
	{"adaptivelink_indexes", "Resident indexes registered.", "gauge", "", func(r *scrape) float64 { return float64(len(r.s.indexes)) }},
	{"adaptivelink_uptime_seconds", "Seconds since the service started.", "gauge", "", func(r *scrape) float64 { return time.Since(r.s.start).Seconds() }},
	{"adaptivelink_goroutines", "Live goroutines.", "gauge", "", func(*scrape) float64 { return float64(runtime.NumGoroutine()) }},
	{"adaptivelink_heap_alloc_bytes", "Bytes of allocated heap objects.", "gauge", "", func(r *scrape) float64 { return float64(r.ms.HeapAlloc) }},
	{"adaptivelink_gc_cycles_total", "Completed GC cycles.", "gauge", "", func(r *scrape) float64 { return float64(r.ms.NumGC) }},
	{"adaptivelink_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "gauge", "", func(r *scrape) float64 { return float64(r.ms.PauseTotalNs) / 1e9 }},
}

// clusterRows are a router's self-healing series; its per-node request
// counts are rendered in WriteMetrics.
var clusterRows = []row{
	{"adaptivelink_cluster_hints_total", hintsHelp, "counter", `outcome="queued"`, func(r *scrape) float64 { return float64(r.cl.HintsQueued) }},
	{"adaptivelink_cluster_hints_total", hintsHelp, "counter", `outcome="replayed"`, func(r *scrape) float64 { return float64(r.cl.HintsReplayed) }},
	{"adaptivelink_cluster_hints_total", hintsHelp, "counter", `outcome="dropped"`, func(r *scrape) float64 { return float64(r.cl.HintsDropped) }},
	{"adaptivelink_cluster_repairs_total", repairsHelp, "counter", `kind="hint_replay"`, func(r *scrape) float64 { return float64(r.cl.RepairsHint) }},
	{"adaptivelink_cluster_repairs_total", repairsHelp, "counter", `kind="full_resync"`, func(r *scrape) float64 { return float64(r.cl.RepairsResync) }},
	{"adaptivelink_cluster_breaker_transitions_total", breakerHelp, "counter", `state="open"`, func(r *scrape) float64 { return float64(r.cl.BreakerOpen) }},
	{"adaptivelink_cluster_breaker_transitions_total", breakerHelp, "counter", `state="half_open"`, func(r *scrape) float64 { return float64(r.cl.BreakerHalfOpen) }},
	{"adaptivelink_cluster_breaker_transitions_total", breakerHelp, "counter", `state="closed"`, func(r *scrape) float64 { return float64(r.cl.BreakerClosed) }},
}

const (
	hintsHelp   = "Hinted-handoff writes, by outcome (queued, replayed, dropped)."
	repairsHelp = "Replica repairs completed, by kind."
	breakerHelp = "Circuit-breaker state transitions across all replicas."
	matchesHelp = "Result pairs per index and kind."
	upsertHelp  = "Reference tuples applied by upserts, by effect."
)

// indexRows are each index's series, labelled with its name.
var indexRows = []row{
	{"adaptivelink_sessions_total", "Probe sessions opened per index.", "counter", "", func(r *scrape) float64 { return float64(r.c.Sessions) }},
	{"adaptivelink_probes_total", "Probes served per index.", "counter", "", func(r *scrape) float64 { return float64(r.c.Probes) }},
	{"adaptivelink_probe_hits_total", "Probes that found at least one match.", "counter", "", func(r *scrape) float64 { return float64(r.c.Hits) }},
	{"adaptivelink_matches_total", matchesHelp, "counter", `,kind="exact"`, func(r *scrape) float64 { return float64(r.c.ExactMatches) }},
	{"adaptivelink_matches_total", matchesHelp, "counter", `,kind="approximate"`, func(r *scrape) float64 { return float64(r.c.ApproxMatches) }},
	{"adaptivelink_escalations_total", "Probes re-run approximately after a deficit signal.", "counter", "", func(r *scrape) float64 { return float64(r.c.Escalations) }},
	{"adaptivelink_session_switches_total", "Operator switches enacted by session control loops.", "counter", "", func(r *scrape) float64 { return float64(r.c.Switches) }},
	{"adaptivelink_upserted_tuples_total", upsertHelp, "counter", `,effect="inserted"`, func(r *scrape) float64 { return float64(r.c.Inserted) }},
	{"adaptivelink_upserted_tuples_total", upsertHelp, "counter", `,effect="updated"`, func(r *scrape) float64 { return float64(r.c.Updated) }},
	{"adaptivelink_modelled_cost_total", "Session cost under the paper's weight model, in all-exact-step units.", "counter", "", func(r *scrape) float64 { return r.c.ModelledCost }},
	{"adaptivelink_index_size", "Resident reference tuples per index.", "gauge", "", func(r *scrape) float64 { return float64(r.ix.Len()) }},
	{"adaptivelink_index_shards", "Shard count of the resident index.", "gauge", "", func(r *scrape) float64 { return float64(r.ix.Options().Shards) }},
	{"adaptivelink_engine_upserts_total", "Maintenance batches applied to the resident engine.", "gauge", "", func(r *scrape) float64 { return float64(r.es.Upserts) }},
	{"adaptivelink_engine_snapshot_swaps_total", "Per-shard snapshot publications (RCU swaps).", "gauge", "", func(r *scrape) float64 { return float64(r.es.SnapshotSwaps) }},
	{"adaptivelink_engine_clone_seconds_total", "Cumulative shard-snapshot clone time on the copy-on-write upsert path.", "gauge", "", func(r *scrape) float64 { return r.es.CloneSeconds }},
	{"adaptivelink_engine_scratch_gets_total", "Scratch-pool checkouts on the approximate probe and upsert paths.", "gauge", "", func(r *scrape) float64 { return float64(r.es.ScratchGets) }},
	{"adaptivelink_engine_scratch_misses_total", "Scratch-pool checkouts that allocated fresh (pool miss).", "gauge", "", func(r *scrape) float64 { return float64(r.es.ScratchMisses) }},
	{"adaptivelink_engine_qgram_builds_total", "Lazy q-gram builds: one per shard, by its first approximate probe.", "gauge", "", func(r *scrape) float64 { return float64(r.es.QGramBuilds) }},
	{"adaptivelink_engine_qgram_build_keys_total", "Keys decomposed by lazy q-gram builds.", "gauge", "", func(r *scrape) float64 { return float64(r.es.QGramBuildKeys) }},
	{"adaptivelink_engine_qgram_build_seconds_total", "Cumulative lazy q-gram build time: what first escalations into shards waited for.", "gauge", "", func(r *scrape) float64 { return r.es.QGramBuildSeconds }},
	{"adaptivelink_engine_qgram_built_shards", "Shards currently holding q-gram structures.", "gauge", "", func(r *scrape) float64 { return float64(r.es.QGramBuiltShards) }},
	{"adaptivelink_engine_qgram_posting_bytes", "Bytes of the built shards' posting lists: encoded blocks plus 4 per uncompressed tail ref.", "gauge", "", func(r *scrape) float64 { return float64(r.es.QGramPostingBytes) }},
	{"adaptivelink_wal_appends_total", "Acknowledged write-ahead-log appends since open.", "gauge", "", func(r *scrape) float64 { return float64(r.st.WALAppends) }},
	{"adaptivelink_wal_append_seconds_total", "Cumulative WAL append wall time, fsync included.", "gauge", "", func(r *scrape) float64 { return r.st.WALAppendSeconds }},
	{"adaptivelink_wal_fsync_seconds_total", "Cumulative WAL fsync wall time.", "gauge", "", func(r *scrape) float64 { return r.st.WALFsyncSeconds }},
	{"adaptivelink_checkpoints_total", "Snapshot checkpoints since open.", "gauge", "", func(r *scrape) float64 { return float64(r.st.Checkpoints) }},
	{"adaptivelink_checkpoint_seconds_total", "Cumulative checkpoint wall time (export, write, WAL reset).", "gauge", "", func(r *scrape) float64 { return r.st.CheckpointSeconds }},
}

// WriteMetrics renders the Prometheus exposition from the state at
// scrape: every declared family, and the series of the indexes
// registered at that moment.
func (s *Service) WriteMetrics(w io.Writer) error {
	r := &scrape{s: s}
	runtime.ReadMemStats(&r.ms)
	var e metrics.Exposition
	v := buildVersion()
	e.Family("adaptivelink_build_info", "Build metadata; the value is always 1.", "gauge").
		Sample(fmt.Sprintf("go_version=%q,version=%q,revision=%q", v.GoVersion, v.Version, v.Revision), 1)
	outcomes := e.Family("adaptivelink_link_requests_total", "Link requests by outcome.", "counter")
	for i, code := range linkOutcomes {
		outcomes.Sample(fmt.Sprintf("code=%q", code), float64(s.linkRequests[i].Load()))
	}
	e.Histogram("adaptivelink_link_batch_keys", "Keys per admitted link request.", s.batchSize)
	e.Histogram("adaptivelink_link_latency_seconds", "Admitted link request duration, queue wait included.", s.linkLatency)
	e.Histogram("adaptivelink_link_queue_wait_seconds", "Time an admitted link request waited for an execution slot.", s.queueWait)
	if s.cfg.Cluster != nil {
		r.cl = s.cfg.Cluster.Counts()
		nodes := e.Family("adaptivelink_cluster_node_requests_total", "Node requests issued by the cluster router, by node and outcome.", "counter")
		for _, n := range r.cl.Nodes {
			nodes.Sample(fmt.Sprintf("node=%q,outcome=%q", n.Addr, "ok"), float64(n.OK))
			nodes.Sample(fmt.Sprintf("node=%q,outcome=%q", n.Addr, "error"), float64(n.Err))
		}
		for _, row := range clusterRows {
			e.Family(row.name, row.help, row.kind).Sample(row.labels, row.read(r))
		}
	}
	families := make([]*metrics.Family, len(indexRows))
	for i, row := range indexRows {
		families[i] = e.Family(row.name, row.help, row.kind)
	}
	s.mu.RLock()
	for _, row := range serviceRows {
		e.Family(row.name, row.help, row.kind).Sample(row.labels, row.read(r))
	}
	for _, mi := range s.indexes {
		r.ix, r.c, r.es = mi.ix, mi.read(), mi.ix.EngineStats()
		r.st, _ = mi.ix.StorageStats()
		for i, row := range indexRows {
			families[i].Sample(mi.label+row.labels, row.read(r))
		}
	}
	s.mu.RUnlock()
	_, err := e.WriteTo(w)
	return err
}
