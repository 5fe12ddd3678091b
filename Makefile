# Local dev and CI run the same targets: `make check` is exactly what
# .github/workflows/ci.yml executes.

GO ?= go

# Coverage ratchet: fail when total statement coverage drops below this.
# Raise it (never lower it) when a PR lifts coverage.
COVER_MIN ?= 88.7

.PHONY: all build vet fmt test race flake loc bench benchmark-test cover serve-smoke obs-smoke cluster-smoke chaos fuzz alloc check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Host-class flake gate: the packages whose tests assert scheduling-
# and lock-sensitive behaviour (lock-free probes, RCU swaps and the
# copy-on-write containers, indexes and dictionary under them, crash
# sweeps, the cluster client's fan-out, queue drainers and breakers, the
# parallel executor's barrier rendezvous and switch storm, the sharded
# controller's broadcast) or draw random inputs (the normalize
# properties), 20 times over at 1, 2 and 4 scheduler threads, so a test
# that only holds on the builder's core count — or on most seeds —
# cannot land. The service package's routed convergence and failure
# tests (real nodes behind the fault transport), its admission tests
# (execution slots, deadlines while waiting, drain and close) and its
# create tests (a body's tuples decoding on their own goroutine while
# the bulk load homes them, or while a router prepares each group's
# upsert body from them, the snapshot written beside the shard
# inserts, a node's first upsert built beside its log append, and
# TestCreateDeleteChurnScrape: /metrics scraped while
# indexes are created, upserted and deleted, no deleted index's series
# ever scraped again) and its upsert tests (rows read by the tuple
# reader alias a body that nothing keeps; an upsert is visible to the
# next probe) and its boot-load tests (LoadStored: what a boot loads and
# skips, and the one collection that ends a boot's loads) ride along 5
# times.
flake:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test ./internal/join ./internal/store ./internal/cluster ./internal/normalize ./internal/hashidx ./internal/qgram ./internal/cow ./internal/pjoin ./internal/adaptive -count=20 || exit 1; \
		GOMAXPROCS=$$p $(GO) test ./internal/service -run 'Chaos|Cluster|Link|Drain|Create|Metrics|Scrape|Stats|Upsert|LoadStored' -count=5 || exit 1; \
	done

# Code size per package: non-blank, non-comment lines of the non-test
# .go files (the tree uses line comments only), and the total — the
# figure a deletion PR quotes before and after. The nested benchmark
# module is not part of `./...` and is not counted.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		n=$$(find "$$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | grep -v '^[[:space:]]*//' | grep -vc '^[[:space:]]*$$'); \
		printf '%6d  %s\n' "$$n" "$$pkg"; \
	done | awk '{ t += $$1; print } END { printf "%6d  total\n", t }'

# One iteration of every benchmark: a smoke test that the bench harness
# still compiles and runs, not a measurement. Measurements of record
# come from the repository benchmark (BENCHMARK.json, benchmark/).
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The repository benchmark (BENCHMARK.json, benchmark/) is a nested
# module that `./...` does not reach: vet it and run its tests — unit
# tests plus a 6 s smoke run of all four workloads at 1/50 size against
# real daemons — so an internal API change that breaks it fails here.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Total statement coverage with a ratchet threshold: CI fails when a
# change drops coverage below COVER_MIN. Runs under -race, but it does
# not replace `race`: -covermode=atomic's counters are atomic operations,
# which the race detector treats as synchronisation, so this pass can
# miss a race the plain `race` pass reports.
cover:
	$(GO) test -race -coverprofile=coverage.out -covermode=atomic ./...
	@$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_MIN) '\
		/^total:/ { sub(/%/, "", $$3); \
			if ($$3 + 0 < min + 0) { printf "FAIL: coverage %.1f%% below ratchet %.1f%%\n", $$3, min; exit 1 } \
			else { printf "coverage %.1f%% (ratchet %.1f%%)\n", $$3, min } }'

# End-to-end service smoke: start adaptivelinkd, drive it with
# linkbench (100 requests from 64 concurrent clients, all must be 2xx),
# SIGTERM and assert a clean drain — then restart the daemon against a
# data dir and assert the reloaded index answers identically.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end observability smoke: request-id minting/echo, explain
# decision traces reconciling with session stats, forced per-request
# traces, the slowlog, /v1/version, the telemetry series in /metrics,
# pprof on the debug listener, the linkbench server-p99 crosscheck,
# and finally `make alloc` with tracing compiled in to prove the probe
# hot path stayed allocation-free.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end cluster smoke: three node daemons (one group with two
# replicas) behind a quorum-1 router, linkbench driven through the
# router, a replica SIGKILLed mid-run (failover must keep every request
# 2xx and /v1/cluster must report the corpse unhealthy), writes landing
# while it is dead, the replica revived blank at its recorded address
# (its refused replay collapses into a queued re-seed; the group's
# content digests must converge), a whole group killed (routed batches must fail
# whole with node_unavailable, never answer partially), and clean
# SIGTERM drains for the survivors.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Scripted fault suite under the race detector: crash-consistency
# sweeps and WAL poisoning in the store, the service's crash states on
# disk (TestDeleteCrashAfterRename: a committed DELETE's tombstone, whole
# or half removed, swept on boot; TestCreateCrashBeforeSnapshotRename: a
# create killed before its snapshot's rename no longer holds its name),
# snapshot/restore repair paths,
# quorum writes, the per-replica convergence queue (write replay,
# overflow and refusal collapsing into a re-seed, the drainer's three
# invariants), circuit breakers, anti-entropy detection, and the
# transport-level chaos schedules (replica killed / black-holed under
# write+probe load, revival, writes during a re-seed, digest
# convergence).
chaos:
	$(GO) test -race -count=1 \
		-run 'Crash|Torn|Poison|Orphan|Digest|Resync|Reseed|Refused|Restore|Import|Quorum|Hint|Breaker|Repair|Chaos|Heal|Prefer|DeadlineDuringFanOut' \
		. ./internal/store ./internal/fault ./internal/cluster ./internal/service

# Short fuzz passes, one invariant each: torn reads (concurrent upserts
# racing probes must never expose a half-applied payload), the resident
# store (a shard's arenas, entry table and exact index under inserts,
# replacements, clones, compactions and loads read as a map model, and
# a frozen generation and the views read from it never change), snapshot
# decoding (arbitrary bytes, as given and with the checksum re-sealed,
# never panic or build a broken index), the snapshot round trip (any
# view decodes to itself and digests the same), write-ahead-log replay (recovery always stops at an intact record
# boundary), decomposition parity (the byte-packed, rune-packed and
# string-fallback gram paths agree with the Grams oracle on arbitrary
# Unicode), padded decomposition (the grams are exactly the distinct
# q-rune windows, each once), the gram dictionary (dense stable ids,
# packed/string agreement, clone isolation), the posting codec
# (block-compressed lists under inserts, clones, evictions and rebuilds
# decode to a plain []int32 oracle, and frozen generations never
# change), the CSV reader (relations with commas, quotes, CR/LF and
# invalid UTF-8 round-trip through WriteCSV and LoadRelationCSV;
# arbitrary bytes load header-wide tuples or fail, never panic), the
# normalization profiles (every profile's ASCII kernel returns what its
# steps return), the request decoders (a link body the one-pass scanner
# accepts, encoding/json accepts too and reads as the same value, owning
# its strings; a create or upsert body the tuple reader accepts reads as
# encoding/json reads it, and the reader leaves the body's bytes as they
# were), the upsert encoder (json.Marshal's bytes for arbitrary
# keys and attributes), the similarity function (bounded, symmetric, 1 on identical inputs) and
# the parallel router's scan clock (per-shard stamps strictly
# increasing). Names are anchored: -fuzz takes a regexp and must match
# exactly one target. `go test -fuzz=<name> <package>` digs deeper.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/join -run=NONE -fuzz='^FuzzUpsertProbe$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/join -run=NONE -fuzz='^FuzzResidentStore$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run=NONE -fuzz='^FuzzSnapshotDecode$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run=NONE -fuzz='^FuzzSnapshotRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/store -run=NONE -fuzz='^FuzzWALReplay$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qgram -run=NONE -fuzz='^FuzzDecomposeParity$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qgram -run=NONE -fuzz='^FuzzGrams$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/qgram -run=NONE -fuzz='^FuzzGramDict$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/hashidx -run=NONE -fuzz='^FuzzPostingList$$' -fuzztime=$(FUZZTIME)
	$(GO) test . -run=NONE -fuzz='^FuzzCSVRoundTrip$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/normalize -run=NONE -fuzz='^FuzzNormalize$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run=NONE -fuzz='^FuzzDecodeRequest$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/wire -run=NONE -fuzz='^FuzzEncodeUpsert$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/simfn -run=NONE -fuzz='^FuzzSimilarities$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/pjoin -run=NONE -fuzz='^FuzzRoute$$' -fuzztime=$(FUZZTIME)

# Allocation-regression pins: the probe hot path (exact resident probe
# = 0 allocs/op, approximate probe within its documented budget), the
# service's link admission path (a 2-key exact Link within its budget), the
# request decoders (a 64-key link body and, through the tuple reader, a
# 16-tuple upsert body within their pins, below encoding/json; a create
# body in as many allocations at 20k tuples as at 1k), normalization
# (every profile returns an already-normal ASCII key with 0 allocs), an
# in-memory 20k-row BulkLoad(FromTuples) (no allocation per tuple), the
# bytes a durable 20k-tuple create through the handler allocates per
# tuple (310: one copy of the tuples, no gathered store) and leaves live per tuple (115:
# the shards own their bytes, nothing of the body is kept; a routed
# create's router, 8: it keeps nothing per key), a 10k-tuple upsert into an
# empty durable index (200: a bulk load, one log frame), the
# bytes an upsert batch allocates (independent of the index size), and
# the footprint pins — live heap bytes per resident tuple and bytes a
# steady-state checkpoint (1: the encoder merges the shard stores, no
# gathered store) and a snapshot load allocate per tuple (124: the
# build copies each tuple straight from the image into its shard, no
# decoded copy, and reads the image through forward cursors, no
# per-tuple table) (alloc_api_test.go).
# Run without -race: the race runtime perturbs allocation counts. The
# join-level pins carry a !race build tag and the kernel-level
# AllocsPerRun assertions in hashidx/qgram skip themselves under -race
# (their correctness halves still run everywhere, `cover` included);
# this target is where every allocation count is actually enforced. It
# runs the filter over every package, so a pin in a package added later
# (or one a hand-kept list forgot) is enforced too.
alloc:
	$(GO) test ./... -run 'Alloc|ZeroAlloc|NoAlloc|ShortCircuit' -count=1

# CI runs both `race` and `cover` (see the comment on `cover`); `test`
# is redundant here, as both run the whole suite.
check: build vet fmt race cover flake alloc bench benchmark-test fuzz chaos serve-smoke obs-smoke cluster-smoke
