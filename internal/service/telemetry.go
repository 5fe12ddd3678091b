package service

import (
	"fmt"
	"runtime"
	"time"

	"adaptivelink"
)

// Scraped series. Each is declared once, by a row naming it and reading
// its value from where the fact lives — the service's admission
// counters, the runtime, or an index's engine and storage stats — or,
// for the build-info gauge and the tracer's slow-request counter, in
// WriteMetrics itself. No copy of any of them is kept between scrapes.
// Series the service counts itself (the link counters and histograms,
// the per-index session counters) are registered where they are
// counted.

// scrape is what one WriteMetrics call reads: the runtime's memory
// statistics once, and per index its engine and storage stats once.
type scrape struct {
	s  *Service
	ms runtime.MemStats
	ix *adaptivelink.Index
	es adaptivelink.EngineStats
	st adaptivelink.StorageStats
}

// gauge is one scraped gauge: its name, help text and reader.
type gauge struct {
	name, help string
	read       func(*scrape) float64
}

// serviceGauges are the process-wide scraped gauges.
var serviceGauges = []gauge{
	{"adaptivelink_link_queued", "Link requests waiting for an execution slot.", func(r *scrape) float64 { return float64(r.s.queued.Load()) }},
	{"adaptivelink_link_running", "Link requests currently executing.", func(r *scrape) float64 { return float64(r.s.running.Load()) }},
	{"adaptivelink_indexes", "Resident indexes registered.", func(r *scrape) float64 { return float64(len(r.s.indexes)) }},
	{"adaptivelink_uptime_seconds", "Seconds since the service started.", func(r *scrape) float64 { return time.Since(r.s.start).Seconds() }},
	{"adaptivelink_goroutines", "Live goroutines.", func(*scrape) float64 { return float64(runtime.NumGoroutine()) }},
	{"adaptivelink_heap_alloc_bytes", "Bytes of allocated heap objects.", func(r *scrape) float64 { return float64(r.ms.HeapAlloc) }},
	{"adaptivelink_gc_cycles_total", "Completed GC cycles.", func(r *scrape) float64 { return float64(r.ms.NumGC) }},
	{"adaptivelink_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", func(r *scrape) float64 { return float64(r.ms.PauseTotalNs) / 1e9 }},
}

// indexGauges are each index's scraped gauges, labelled with its name.
var indexGauges = []gauge{
	{"adaptivelink_index_size", "Resident reference tuples per index.", func(r *scrape) float64 { return float64(r.ix.Len()) }},
	{"adaptivelink_index_shards", "Shard count of the resident index.", func(r *scrape) float64 { return float64(r.ix.Options().Shards) }},
	{"adaptivelink_engine_upserts_total", "Maintenance batches applied to the resident engine.", func(r *scrape) float64 { return float64(r.es.Upserts) }},
	{"adaptivelink_engine_snapshot_swaps_total", "Per-shard snapshot publications (RCU swaps).", func(r *scrape) float64 { return float64(r.es.SnapshotSwaps) }},
	{"adaptivelink_engine_clone_seconds_total", "Cumulative shard-snapshot clone time on the copy-on-write upsert path.", func(r *scrape) float64 { return r.es.CloneSeconds }},
	{"adaptivelink_engine_scratch_gets_total", "Scratch-pool checkouts on the approximate probe and upsert paths.", func(r *scrape) float64 { return float64(r.es.ScratchGets) }},
	{"adaptivelink_engine_scratch_misses_total", "Scratch-pool checkouts that allocated fresh (pool miss).", func(r *scrape) float64 { return float64(r.es.ScratchMisses) }},
	{"adaptivelink_engine_qgram_builds_total", "Lazy q-gram builds: one per shard, by its first approximate probe.", func(r *scrape) float64 { return float64(r.es.QGramBuilds) }},
	{"adaptivelink_engine_qgram_build_keys_total", "Keys decomposed by lazy q-gram builds.", func(r *scrape) float64 { return float64(r.es.QGramBuildKeys) }},
	{"adaptivelink_engine_qgram_build_seconds_total", "Cumulative lazy q-gram build time: what first escalations into shards waited for.", func(r *scrape) float64 { return r.es.QGramBuildSeconds }},
	{"adaptivelink_engine_qgram_built_shards", "Shards currently holding q-gram structures.", func(r *scrape) float64 { return float64(r.es.QGramBuiltShards) }},
	{"adaptivelink_engine_qgram_posting_bytes", "Bytes of the built shards' posting lists: encoded blocks plus 4 per uncompressed tail ref.", func(r *scrape) float64 { return float64(r.es.QGramPostingBytes) }},
	{"adaptivelink_wal_appends_total", "Acknowledged write-ahead-log appends since open.", func(r *scrape) float64 { return float64(r.st.WALAppends) }},
	{"adaptivelink_wal_append_seconds_total", "Cumulative WAL append wall time, fsync included.", func(r *scrape) float64 { return r.st.WALAppendSeconds }},
	{"adaptivelink_wal_fsync_seconds_total", "Cumulative WAL fsync wall time.", func(r *scrape) float64 { return r.st.WALFsyncSeconds }},
	{"adaptivelink_checkpoints_total", "Snapshot checkpoints since open.", func(r *scrape) float64 { return float64(r.st.Checkpoints) }},
	{"adaptivelink_checkpoint_seconds_total", "Cumulative checkpoint wall time (export, write, WAL reset).", func(r *scrape) float64 { return r.st.CheckpointSeconds }},
}

// WriteMetrics renders the Prometheus exposition, reading every scraped
// series first. The index gauges are set under the registry read lock,
// so a deleted index's series, dropped under the write lock, never come
// back.
func (s *Service) WriteMetrics(w interface{ Write([]byte) (int, error) }) error {
	r := &scrape{s: s}
	runtime.ReadMemStats(&r.ms)
	v := buildVersion()
	s.reg.Gauge("adaptivelink_build_info", "Build metadata; the value is always 1.",
		fmt.Sprintf("go_version=%q,version=%q,revision=%q", v.GoVersion, v.Version, v.Revision)).Set(1)
	s.reg.Counter("adaptivelink_slow_requests_total", "HTTP requests at or over the slow-log threshold.", "").Set(float64(s.tracer.SlowSeen()))
	s.mu.RLock()
	for _, g := range serviceGauges {
		s.reg.Gauge(g.name, g.help, "").Set(g.read(r))
	}
	for _, mi := range s.indexes {
		r.ix, r.es = mi.ix, mi.ix.EngineStats()
		r.st, _ = mi.ix.StorageStats()
		for _, g := range indexGauges {
			s.reg.Gauge(g.name, g.help, mi.label).Set(g.read(r))
		}
	}
	s.mu.RUnlock()
	return s.reg.WritePrometheus(w)
}
