// Package adaptivelink performs record linkage at query time with an
// adaptive trade-off between result completeness and execution cost,
// implementing Lengu, Missier, Fernandes, Guerrini and Mesiti,
// "Time-completeness trade-offs in record linkage using Adaptive Query
// Processing" (EDBT 2009).
//
// # Problem
//
// When two independently maintained tables are joined on a string
// attribute (a mashup joining an accidents feed against a street atlas,
// two merged customer databases, ...), some values are variants of each
// other — near-duplicates at small edit distance — and an exact join
// silently drops them. A similarity join recovers them but costs orders
// of magnitude more per tuple. Classic record-linkage pipelines resolve
// this offline; in on-the-fly integration the tables are only available
// at query time.
//
// # Approach
//
// adaptivelink runs a single pipelined symmetric hash join whose two
// sides can each be matched exactly (hash lookup on the join key) or
// approximately (q-gram similarity above a threshold). A
// Monitor–Assess–Respond control loop watches the observed result size:
// under a parent–child join expectation the result size after n child
// tuples is binomially distributed, so a statistically significant
// deficit is evidence of variants. The loop then switches the affected
// side(s) to approximate matching — safely, at operator quiescent
// points, with lazy index catch-up — and switches back once recent
// matches show variants have stopped.
//
// There is one such loop in the code, as in the paper (Fig. 1): a single
// activation body in internal/adaptive assesses an observation and
// answers with the state to be in, and three thin drivers feed it — the
// sequential join from its engine's counters, the parallel join from
// counts aggregated at barriers, a resident Session from its probe
// outcomes. Every firing leaves one record, the Activation, whatever
// drove it: Join.Activations, Session.Activations, the explain decisions
// below and `adaptivejoin -trace` are views of the same trace, each
// carrying the σ evidence, the transition, its reason and the modelled
// spend after it.
//
// # Concurrency
//
// Options.Parallelism shards the join across P concurrent engines
// (default runtime.GOMAXPROCS(0); 1 selects the exact sequential
// engine). A single splitter goroutine reads both inputs in the
// canonical alternating order and hash-partitions them by join key: a
// tuple is stored in exactly one shard, the home of its key — the rule
// the resident index and the cluster tier use. A tuple that probes
// exactly is joined there alone, because equal keys share a home; a
// tuple that probes approximately is offered to every shard — its home
// shard stores and probes, the others probe their disjoint 1/P slice of
// the opposite input without storing. Which of the two a tuple gets
// follows from the shard's mode at that moment; no option selects it.
// Each shard runs an independent switchable engine on its own goroutine
// and a merger fans the match streams into one. Every pair is found in
// exactly one shard and all matched-flags of a key live in one shard, so
// for the fixed strategies the resulting match set — attribution
// included — is identical to the sequential engine's.
//
// Adaptive parallel joins keep one aggregate Monitor–Assess–Respond
// loop over all shards (the same binomial deficit statistics, over
// summed counts). Every δadapt dispatched tuples the splitter emits a
// barrier mark behind the tuples sent so far; when every shard has
// echoed it — and therefore holds no work from before the barrier —
// the loop assesses a consistent cut and broadcasts any mode switch,
// which each shard applies at its own quiescent point before touching
// the next interval's tuples. Per-shard switching thus preserves the
// sequential engine's quiescent-point guarantee: no shard ever changes
// operators mid-probe, and switch-time index catch-up runs per shard
// exactly as in §2.3. Each merged match carries its probing tuple's
// global dispatch position, so the controller replays the perturbation
// windows at the exact steps a sequential controller would have
// recorded them: observations, assessments and switch decisions are
// identical activation-for-activation, for any W and δadapt.
//
// RetainWindow and CostBudget — the safety valves that bound memory and
// cost on unbounded or hostile inputs — compose with any Parallelism:
//
//   - Sliding-window eviction follows the global arrival order, not
//     shard-local arrival: the splitter stamps every tuple with its
//     per-side arrival sequence number and the opposite side's progress,
//     and each shard translates those stamps into the exact window floor
//     a sequential engine would apply at that probe. The match set is
//     therefore identical to the sequential windowed engine's at every
//     shard count. Physical reclamation is each shard's own business,
//     as in the sequential engine: once RetainWindow of the tuples it
//     stores are dead it drops their index entries, so a shard never
//     holds more than one window of dead tuples' entries, and no shard
//     has to agree with another on when.
//
//   - The cost budget is enforced against one global spend counter kept
//     on the logical step clock: at each barrier the interval's
//     dispatches accrue at the broadcast state's step weight and each
//     broadcast switch accrues its transition weight, which equals the
//     sequential engine's own modelled cost at the same step (the
//     barrier rendezvous pins every interval to a single state). The
//     budget therefore pins the join to exact matching at the same
//     activation a sequential run would, and budgeted parallel match
//     sets are golden-identical to sequential ones. The spend prices
//     the logical scan, with one transition per broadcast switch;
//     ModelledCost prices what the shards did — the same steps, but
//     each shard's own transitions. Stats reports both.
//
// # Serving
//
// Besides the one-shot batch join (New → All), the engine has a
// resident index-once/probe-many mode for serving linkage as a query
// service. NewIndex materialises the reference table into the exact
// hash table of Fig. 3 and maintains the q-gram inverted index lazily,
// as §2.3 does: a shard builds its q-gram structures, from its keys in
// one pass, when the first approximate probe reaches it, and upserts
// keep them current from then on. An index that is only ever probed
// exactly never decomposes a key:
//
//	ix, err := adaptivelink.NewIndex(refSource, adaptivelink.IndexOptions{})
//	sess, err := ix.NewSession(adaptivelink.SessionOptions{})
//	matches := sess.Probe("via monte bianca nord 12")
//
// Adaptivity applies per session, not per run: each Session carries its
// own Monitor–Assess–Respond statistics (deficit test, perturbation
// window, escalation history), so one misbehaving probe stream
// escalates only itself. The observation model specialises cleanly —
// the reference is fully resident, so the per-trial match probability
// p(n) of §3.2 is exactly 1 and any persistent shortfall of hits is
// significant evidence of variants. Because a switch costs at most one
// build per shard over the index's lifetime (the first escalation into
// it; every later switch is free), SessionOptions.DeltaAdapt defaults
// to 1: the loop may assess after
// every probe, and the very probe whose miss fires σ is re-run
// approximately (escalation), so its variant matches are not lost.
// Clean stretches drain the window and revert the session to exact
// probing. Index.Probe is the sessionless one-shot convenience
// (exact, then one approximate probe on a miss).
//
// An Index is safe for concurrent use and its probe path is lock-free:
// exact probes always, approximate probes into a shard once it is built
// (a shard's first approximate probe builds it, and probes racing into
// the same unbuilt shard wait for that one build). The reference is
// hash-partitioned by join key into disjoint shards
// (IndexOptions.Shards, default one per hardware thread) — one copy of
// every reference at any shard count; an exact probe reads the key's
// home shard, an approximate probe all of them, merged in the order
// documented on ProbeMatch (join.CompareMatches), which depends on the
// matches alone. Each shard publishes
// an immutable snapshot through
// an atomic pointer, and Upsert builds replacement snapshots off-path
// and swaps them in, RCU-style. A replacement shares every array,
// posting list and hash table with the snapshot it supersedes and
// copies only what the batch touches, so an upsert costs O(batch)
// amortised at any reference size; cloning a snapshot freezes it, so
// the sharing cannot be broken by a late write. The consistency model is per-shard
// snapshot isolation: a probe sees a point-in-time state of every shard
// it reads, upserts are atomic per key (a probe observes the old
// payload or the new one, never a mix), and a cross-shard batch is
// per-shard-consistent rather than globally serialised. ProbeBatch (on
// Index and Session) probes a whole batch with decomposition and
// snapshot loads amortised per shard — semantically identical, match for
// match and statistic for statistic, to a loop of single probes. The
// index is a keyed store — one resident record per join key, newest
// wins, on load and upsert alike (see NewIndex). For each of the four
// Fig. 4 states, the multiset of matches produced by concurrent pinned
// sessions over any shuffling of a probe stream against a key-unique
// reference is identical to the sequential batch engine's result in
// that state (probe_parity_test.go).
//
// cmd/adaptivelinkd serves this mode over HTTP/JSON — named indexes,
// single and batch /v1/link probes, incremental upserts, admission
// control through a bounded number of execution slots, per-request
// deadlines, a Prometheus-style /metrics endpoint priced by the
// paper's cost model, and graceful drain on SIGTERM. Every non-2xx response carries the
// unified v1 error envelope {"error":{"code":...,"message":...}} with
// a closed code set (see internal/service). Request bodies in the
// canonical shape json.Marshal emits are read in one pass
// (internal/wire) — create and upsert bodies by one tuple reader that
// decodes straight into the index's rows, link bodies by a scanner;
// every other body falls back to encoding/json on the same bytes,
// which still defines what a body means and every error message. cmd/linkbench load-tests it and
// prints throughput and latency percentiles.
//
// # Cluster
//
// The serving mode also scales across processes: adaptivelinkd
// -cluster turns a daemon into a router fanning /v1/link out over a
// fleet of stock node daemons. The nodes are unmodified — every
// distributed concern lives in the router (internal/cluster), which
// owns the cluster map and the normalization profile, keeps nothing per
// key, and replays the facade Session (NewRemoteIndex wraps any
// join.Resident, including the router's remote view) so the adaptive
// control loop runs one layer above the network. A routed index is
// built through NewRemoteIndex too, so its options are resolved and
// validated before any node is contacted, and the resident's Upsert
// error (a node group below quorum) is what Index.Upsert returns. A
// routed create reads every row before it contacts a node, preparing
// each while later ones still decode — its key normalised and the row
// encoded into its home group's upsert body — then creates the index
// empty on the nodes and sends each group its body. A node's first upsert into the empty index is a bulk load,
// built beside its write-ahead-log append and published once the append
// succeeded.
//
// The shard→node contract is the in-process partitioning one level up:
// M logical shards are assigned to node groups in contiguous ranges
// (shardmap.NodeRanges) and a key is stored on exactly the group owning
// its key-hash shard (shardmap.ShardOf), the rule ShardedRefIndex
// applies inside a process. An upsert reaches that one group, an exact
// probe asks it alone, and an approximate probe asks every group, each
// answering from its disjoint 1/N of the reference — one stored copy per
// replica and a divided posting scan, the same placement the streaming
// executor applies to its shards. The router merges the groups' answers
// with join.CompareMatches, ProbeMatch's order and the order a single
// process gives them, and counts
// the index's keys from the inserts the groups' upsert answers report,
// so the routed response is byte-identical to a single process serving
// the same request stream: matches, session
// statistics and error envelopes alike, locked down by a differential
// harness over 1-, 2- and 3-group clusters with replicas. Nodes filled
// by earlier routers, which also stored a key off its home group, need
// no migration: a group's answer for a key it is not home to is dropped
// at the merge.
//
// Consistency is per-node snapshot isolation, the single-process model
// per shard group: a write is attempted on every replica of its key's
// home group and is acknowledged once the group's write quorum applied
// it (Config.WriteQuorum, default
// majority); reads hit one replica per group, round-robin, preferring
// replicas with no repair debt and failing over within the group on
// transport errors and draining envelopes. A group with no answering
// replica — or below quorum — fails the whole batch with the
// node_unavailable envelope naming the group and its key-hash range
// (never a silent partial result), a node-side timeout surfaces as the
// standard deadline envelope, and GET /v1/cluster reports the routing
// table with per-replica health and repair state. A failed batch is not
// undone: the replicas that acknowledged it, in the failed group and in
// any other, keep it and serve it, and nothing is queued for their
// peers. That group converges on the client's retry of the batch or, if
// none comes, on the next anti-entropy pass, which re-seeds every
// replica whose digest disagrees with the copy it elects, so the batch's
// rows survive only if the elected copy holds them
// (TestBelowQuorumBatchStaysOnLiveReplicaUntilRepair).
//
// Replicas converge through one router-side queue per replica, drained
// in order by one goroutine with jittered exponential backoff. It holds
// two kinds of entry — a missed write to replay byte-identical (hinted
// handoff), or a re-seed: replace the replica's copy of an index with a
// clean peer's snapshot stream (the index export/resync endpoints,
// which also bootstrap a blank replacement node) — and three detectors
// feed it. A quorum write queues itself on every replica that missed
// it. A queue already holding Config.HintCapacity writes (the replica
// is past the hint horizon) or a replayed write the replica refuses
// collapses the affected indexes' queued writes into one re-seed each.
// And on Config.RepairInterval (or Client.Repair on demand) the router
// compares per-index content digests within each group, elects the
// reference copy by modal digest, and queues a re-seed on every
// divergent replica. A replica with entries queued is behind: new
// writes join the tail of its queue — so a write acknowledged while a
// re-seed runs replays after it — and reads prefer its clean peers;
// GET /v1/cluster reports the queue as hints_pending and needs_resync.
// A per-replica closed/open/half-open circuit breaker, fed passively by
// live traffic and optionally by an active /healthz prober
// (Config.ProbeInterval), short-circuits writes to the queue and
// demotes reads while a replica is down. internal/fault provides the
// deterministic harness the chaos suite (make chaos) scripts these
// failures with: a
// rule-driven http.RoundTripper that fails, black-holes or delays
// matching requests, and a simulated filesystem that injects
// crash-at-byte, torn-write and fsync failures under the store (which
// writes through the internal/vfs seam and never links the simulator).
//
// # Durability
//
// A resident index can outlive its process. Open(dir, opts) opens —
// creating if needed — the durable index stored in a directory, Save
// checkpoints or exports it, Close releases it, and BulkLoad with
// StorageOptions.Dir set builds-and-persists in one step:
//
//	ix, err := adaptivelink.Open("/var/lib/atlas", adaptivelink.IndexOptions{})
//	ix.Upsert(tuples...)   // logged, then applied
//	ix.Save("")            // checkpoint in place
//	ix.Close()
//
// An index directory holds two artifacts. The snapshot (index.snap) is
// a versioned, CRC-32C-checksummed binary serialisation of what a load
// reads back — the tuple store and each shard's member refs, and no
// q-gram data, which is derived: each shard's q-gram structures are
// built from its keys by its first approximate probe (§2.3). Every
// index comes into being through one construction routine: a bulk load,
// a snapshot load of any format version, ImportSnapshot and Open all
// partition a keyed tuple store over the shards by key hash and build
// each shard's tuple store and exact index from it, so a load is a bulk
// build of the stored tuple store, with the stored member refs, where
// an image has them, checked against it. An Upsert into an index that
// holds nothing is the same build, of the batch. ImportSnapshot with
// StorageOptions.Dir set persists what it built exactly as BulkLoad
// does. Loading is a sequential read of the image and that build,
// which copies each tuple's bytes straight from a version-6 image into
// its home shard (older images are decoded into tuples first), and
// writing is one walk over the store: no key is decomposed and no gram
// hashed either way, which is what
// makes cold start faster than rebuilding from the source CSV
// (cold_start_snapshot_s of the durable_restart workload in
// BENCHMARK.json) and a checkpoint a copy of the store.
// The write-ahead log (upserts.wal) records every acknowledged Upsert
// batch in CRC-framed records before it is applied; on Open the
// snapshot loads first and the log replays on top, so the reopened
// index answers exactly as the crashed one did. Recovery truncates a
// torn final record (a crash mid-append) at the last intact boundary,
// and rejects — never silently repairs — corrupt artifacts: a
// truncated or bit-flipped snapshot, a damaged log record, or a
// configuration mismatch between opts and the stored index each fail
// Open with a descriptive error, and no partial index is ever
// returned.
//
// StorageOptions.WALSync selects the fsync policy: SyncAlways (the
// default) makes every acknowledged Upsert crash-durable at the price
// of one fsync per batch; SyncNone leaves flushing to the OS — much
// faster ingest, bounded staleness after a crash, never an
// inconsistent index. Save("") checkpoints in place (snapshot
// replaced atomically via rename, log reset), making the next Open a
// pure snapshot load. NewIndex remains the purely ephemeral
// constructor.
//
// adaptivelinkd gains the same durability end to end: -data-dir makes
// created indexes durable (one subdirectory per index, bulk-loaded
// straight into a snapshot), boot reloads every stored index before
// serving, POST /v1/indexes/{name}/snapshot checkpoints over the wire,
// and index info reports durable/wal_records/last_snapshot.
//
// # Observability
//
// The library explains its adaptive decisions and exposes its runtime
// telemetry. SessionOptions.Explain makes a session record one
// KeyDecision per probed key — the mode it ran in, whether it hit, how
// many matches it produced, whether it escalated, and the
// DecisionPoint events (observed vs expected hits, the σ tail, the
// state transition and its reason, the modelled spend after the probe)
// behind every controller activation — the session's activation trace,
// cut at the key that triggered each firing. Session.Decisions returns
// the trace; with Explain unset the probe path records nothing and keeps
// its zero-allocation pin. The same traces ride the HTTP API ("explain"
// on /v1/link, "decisions" in the response) and print under
// adaptivejoin -explain.
//
// Index exposes its operational counters without touching the probe
// path: RecoveryInfo reports what Open replayed (snapshot tuples, WAL
// batches, whether a torn tail was truncated), StorageStats totals WAL
// appends and fsync/append/checkpoint latencies, and EngineStats
// counts upserts, snapshot swaps, clone time and scratch-pool traffic.
// internal/obs adds an allocation-conscious request tracer used by the
// service: sampled requests record span timings (queue wait, session
// construction, per-chunk probes, merge) into lock-free ring buffers,
// slow requests are always retained coarsely, and unsampled requests
// cost two atomic loads. adaptivelinkd surfaces all of it — structured
// key=value or JSON logs (-log-json) via log/slog, X-Request-ID
// minting/propagation, X-Debug-Trace forced sampling,
// GET /v1/debug/slowlog and /v1/debug/requests/{id},
// GET /v1/version, runtime and per-index series on /metrics, and a
// separate -debug-addr listener serving net/http/pprof. /metrics is
// rendered from the state at scrape and keeps nothing between scrapes:
// every series is read from its source — the runtime, the service's
// admission and link counts, a router's per-node and self-healing
// counts, and each registered index's counts record, Len, Options,
// EngineStats and StorageStats — so none can lag the value it reports,
// an index's series exist exactly while it does, and /v1/stats reads
// the same per-index counts record the scrape does. The slow-request
// counter is the tracer's own count. make obs-smoke exercises the whole
// surface end to end.
//
// # Performance
//
// The q-gram hot path of both engines is dictionary-encoded: each
// index interns grams into dense uint32 ids (internal/qgram.Dict),
// posting lists are a slice-indexed table keyed by gram id, and
// verification is integer arithmetic over a candidate's stored gram
// count and the overlap the count filter has already counted — no
// re-extraction, no re-hashing, no per-probe maps. The postings are
// the one resident copy of the (ref, gram) relation, and no per-tuple
// signatures are kept, resident or on disk. Each posting list is a run
// of immutable frame-of-reference blocks of 32 refs — a 5-byte header,
// then one gap per ref in the fewest bytes the block's widest gap
// needs, one byte in any list denser than one ref in 256 — and an
// uncompressed tail of the newest refs that inserts append to, about
// 1.2 bytes per posting against 4 stored flat; the count filter decodes
// the blocks gap by gap as it scans them.
//
// A resident shard owns the bytes of its tuples: an append-only arena
// of byte chunks holds each tuple's key and attribute bytes, an arena
// of string chunks its attribute headers, and a chunked copy-on-write
// table of pointer-free entries its ID, its key's address and its
// attributes' span. The shard's exact index maps each key to its one
// local ref in a refs-only open-addressing table, keys compared through
// the entries, layered as a shared base and a small overlay like the
// gram dictionary. Create, upsert, log replay and snapshot load copy
// the bytes in, so an index never retains a request body or a snapshot
// image. A tuple a probe returns is a view over the chunks — Key and
// Attrs copied nowhere — and the chunks are immutable once published,
// so a result stays valid and unchanged whatever is upserted later. A
// replacement appends its attributes and re-points its entry; once a
// shard's orphaned bytes exceed 1/16 of its live ones, the writer's
// next generation copies the live tuples into fresh chunks. Together
// these hold a built resident index at ~199 bytes per reference tuple
// at 20k rows, key and attribute bytes included (~113 never probed
// approximately).
// Probe keys are decomposed by packed fast paths that never
// materialise gram strings: ASCII keys pack gram bytes into uint64s,
// non-ASCII keys within the Basic Multilingual Plane pack code points
// at 21 bits each (astral-plane input falls back to an equivalent
// string path), candidate counting runs on epoch-stamped arrays reused
// across probes, and the resident indexes recycle all per-probe
// scratch through a sync.Pool. With caller-owned result buffers the
// exact resident probe performs zero allocations per operation and the
// approximate probe at most one (two for non-ASCII keys); allocation
// regression tests pin all budgets.
//
// The encoding composes with the RCU snapshot discipline above: the
// dictionary is part of each published shard snapshot, the next
// snapshot shares its gram table, every posting list the batch does
// not extend and every block of those it does, and interning is
// append-only (ids are never renumbered), so a probe always reads a
// consistent dict/postings pair and the match contract is bit-for-bit
// unchanged. The repository benchmark (BENCHMARK.json,
// benchmark/README.md) is the record of what a probe and a request
// cost, end to end and layer by layer.
//
// # Unicode and normalization
//
// Join keys are UTF-8 throughout, and non-Latin keys run the same
// packed hot path as ASCII ones. The gram extractor's decomposition
// has three tiers: ASCII grams pack their bytes into a uint64; grams
// whose code points all lie in the Basic Multilingual Plane (which is
// every natural-language script — Latin with diacritics, Cyrillic,
// Greek, CJK, ...) pack up to three code points at 21 bits each, a
// packing whose numeric order still equals the gram's UTF-8 bytewise
// order, so routing, sorting and prefix filtering are oblivious to the
// scheme; only astral-plane runes (emoji, historic scripts) and gram
// widths the packings cannot hold fall back to gram strings, with
// identical results (FuzzDecomposeParity holds the three tiers
// differentially equal). Case folding inside the extractor uses the
// simple, rune-count-preserving mapping so gram positions are stable.
//
// Matching Unicode spellings of the same name — "José" in NFC vs NFD,
// "STRASSE" vs "Straße", е vs ё — is the job of normalization
// profiles, applied by the Index facade before any key reaches the
// engine. IndexOptions.Profile names a pipeline from a fixed registry
// (Profiles lists it): "" indexes keys verbatim (the default and the
// historical behaviour), "standard" is the legacy fold/upper/strip
// pipeline, and "latin", "cyrillic", "greek" and "cjk" are per-script
// pipelines composing NFC canonicalisation, accent folding, full case
// folding (ß→SS, final sigma), combining-mark stripping and width
// folding as appropriate. Keys are normalised once on Upsert — before
// the WAL logs them, so durable artifacts hold keys in indexed form
// and recovery never re-normalises — and on every probe entry point.
// The profile is part of the durable compatibility tuple: snapshot and
// WAL headers record it, reopening with zero options adopts it, and
// opening under a different profile is a descriptive error, never a
// silent re-interpretation. Profile names are forever-stable for the
// same reason. The HTTP service exposes the option as the "profile"
// field of index creation. Every registered profile normalises an
// all-ASCII key in one pass (an ASCII kernel returning exactly what
// its steps return, and the key itself when it is already normal);
// keys with any non-ASCII byte run the steps.
//
// The normalize package also fixes a classic linkage bug: accent
// folding accepts decomposed (NFD) input and covers the ø/æ/œ/ł/đ/ð/þ
// gaps of the historical accent map.
//
// # Inputs
//
// Tuple is the engine's own tuple type (internal/relation), and a
// Source has the same single method as the engine's sources, so tuples
// cross the API uncopied in both directions: a Source is handed to the
// join as is, and Match and TestData carry the tuples the engine stored
// or generated. ProbeMatch is the engine's match type itself (an alias
// of join.RefMatch), so a probe's results reach the caller as the
// resident built them. The only copies are the ones a contract
// needs — FromTuples and FromKeys assign sequential IDs, Index.Upsert
// normalises keys without rewriting the caller's slice, and
// LoadRelationCSV returns a slice the caller owns. FromChannel reads the
// caller's channel directly and starts no goroutine, so a join closed
// early leaves nothing running. FromCSV and LoadRelationCSV are one
// reader: LoadRelationCSV drains the source FromCSV returns, so a record
// whose field count differs from the header's is an error naming its
// line ("line 3: got 1 fields, want 2", counting records, not the
// physical lines a quoted newline adds) through either entry point.
//
// # Usage
//
//	left := adaptivelink.FromKeys("alpha centauri b", "beta pictoris c")
//	right := adaptivelink.FromKeys("alpha centauri b", "beta pictoris d")
//	j, err := adaptivelink.New(left, right, adaptivelink.Options{ParentSize: 2})
//	if err != nil { ... }
//	matches, err := j.All()
//
// See the examples directory for streaming inputs, the accidents-mashup
// scenario, parameter tuning and the serving mode (examples/service),
// and cmd/experiments (-all, or -fig5 … -fig8, -table1, -tuning,
// -offline one at a time) for the full reproduction of the paper's
// evaluation.
package adaptivelink
