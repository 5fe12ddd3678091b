package cli

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adaptivelink"
	"adaptivelink/internal/cluster"
	"adaptivelink/internal/obs"
	"adaptivelink/internal/service"
)

// RunAdaptiveLinkd implements cmd/adaptivelinkd: it serves the resident
// linkage service over HTTP until SIGTERM/SIGINT, then drains
// gracefully. It returns the process exit code.
func RunAdaptiveLinkd(args []string, stdout, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runAdaptiveLinkd(ctx, args, stdout, stderr)
}

// runAdaptiveLinkd is the testable core: it serves until ctx is
// cancelled (the signal handler cancels it in production).
func runAdaptiveLinkd(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("adaptivelinkd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		addrFile    = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		workers     = fs.Int("workers", 0, "link requests executing at once; the rest wait for a slot until their deadline (0 = one per CPU, min 2)")
		deadline    = fs.Duration("deadline", 5*time.Second, "default per-request deadline")
		maxBatch    = fs.Int("max-batch", 4096, "maximum keys per link request")
		preload     = fs.String("preload", "", "preload an index from CSV as name=path (optional)")
		preloadKey  = fs.String("preload-key", "location", "join-key column for -preload")
		q           = fs.Int("q", 3, "q-gram width for preloaded/default indexes")
		theta       = fs.Float64("theta", 0.75, "similarity threshold for preloaded/default indexes")
		shards      = fs.Int("shards", 0, "shard count for preloaded indexes (0 = one per hardware thread)")
		drainWait   = fs.Duration("drain-timeout", 15*time.Second, "maximum time to wait for in-flight requests at shutdown")
		dataDir     = fs.String("data-dir", "", "durable index storage directory (empty = in-memory only)")
		walSync     = fs.String("wal-sync", "always", "write-ahead-log fsync policy: always or none")
		logJSON     = fs.Bool("log-json", false, "emit structured logs as JSON instead of text")
		debugAddr   = fs.String("debug-addr", "", "debug listener address serving net/http/pprof (empty = off; use 127.0.0.1:0 for ephemeral)")
		debugFile   = fs.String("debug-addr-file", "", "write the bound debug address to this file (for scripts)")
		traceSample = fs.Int("trace-sample", obs.DefaultSampleEvery, "sample one request in N for span traces (0 = disable sampling)")
		slowThresh  = fs.Duration("slow-threshold", obs.DefaultSlowThreshold, "log and retain requests at or over this duration (0 = disable)")
		slowlogCap  = fs.Int("slowlog-cap", obs.DefaultSlowCapacity, "retained slow-request traces")
		clusterSpec = fs.String("cluster", "", "run as the cluster router over these node groups: groups separated by ';', replicas within a group by ',' (e.g. \"http://a:8080,http://b:8080;http://c:8080\")")
		clusterN    = fs.Int("cluster-shards", 0, "logical key-hash shard count M for -cluster placement (0 = one per group): a key lives on the one group owning its hash shard; constant for the cluster's lifetime")
		clusterWQ   = fs.Int("cluster-write-quorum", 0, "replicas per group that must acknowledge a write (0 = majority); the rest converge via hinted handoff")
		clusterHint = fs.Int("cluster-hint-cap", 0, "writes queued for replay per replica (0 = default 512); overflow collapses them into one queued re-seed (full snapshot from a clean peer) per index")
		clusterPI   = fs.Duration("cluster-probe-interval", 2*time.Second, "active /healthz probe interval feeding the replica circuit breakers (0 = passive only)")
		clusterRI   = fs.Duration("cluster-repair-interval", 3*time.Second, "anti-entropy interval: compare replica digests and queue a re-seed on divergence (0 = off; missed writes and overflowed queues converge without it)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var syncPolicy adaptivelink.SyncPolicy
	switch *walSync {
	case "always":
		syncPolicy = adaptivelink.SyncAlways
	case "none":
		syncPolicy = adaptivelink.SyncNone
	default:
		fmt.Fprintf(stderr, "adaptivelinkd: -wal-sync wants always or none, got %q\n", *walSync)
		return 2
	}

	var handler slog.Handler
	if *logJSON {
		handler = slog.NewJSONHandler(stdout, nil)
	} else {
		handler = slog.NewTextHandler(stdout, nil)
	}
	log := slog.New(handler)

	trace := obs.Config{
		SampleEvery:   *traceSample,
		SlowThreshold: *slowThresh,
		SlowCapacity:  *slowlogCap,
	}
	if *traceSample <= 0 {
		trace.SampleEvery = -1
	}
	if *slowThresh == 0 {
		trace.SlowThreshold = -1
	}

	// Router mode: the process owns routing, normalization and merge
	// order; the node daemons own storage and probing. Local durability
	// and CSV preloads are node concerns, so both are rejected here.
	var clusterClient *cluster.Client
	if *clusterSpec != "" {
		if *dataDir != "" || *preload != "" {
			fmt.Fprintln(stderr, "adaptivelinkd: -cluster is incompatible with -data-dir and -preload (durability and loads live on the nodes)")
			return 2
		}
		m, err := cluster.ParseSpec(*clusterSpec, *clusterN)
		if err != nil {
			fmt.Fprintf(stderr, "adaptivelinkd: %v\n", err)
			return 2
		}
		clusterClient, err = cluster.New(cluster.Config{
			Map:            m,
			WriteQuorum:    *clusterWQ,
			HintCapacity:   *clusterHint,
			ProbeInterval:  *clusterPI,
			RepairInterval: *clusterRI,
		})
		if err != nil {
			fmt.Fprintf(stderr, "adaptivelinkd: %v\n", err)
			return 2
		}
		log.Info("cluster router", "groups", len(m.Groups), "shards", m.Shards,
			"write_quorum", *clusterWQ, "probe_interval", *clusterPI, "repair_interval", *clusterRI)
	}

	svc := service.New(service.Config{
		Workers:         *workers,
		DefaultDeadline: *deadline,
		MaxBatch:        *maxBatch,
		DataDir:         *dataDir,
		WALSync:         syncPolicy,
		Logger:          log,
		Trace:           trace,
		Cluster:         clusterClient,
	})

	// Reopen whatever the data dir holds before serving: snapshot loads
	// plus write-ahead-log replay, so the daemon answers exactly as it
	// did before the restart. The service logs each reload (and any
	// torn-tail truncation) itself.
	if _, err := svc.LoadStored(); err != nil {
		fmt.Fprintf(stderr, "adaptivelinkd: %v\n", err)
		return 1
	}

	if *preload != "" {
		name, path, ok := strings.Cut(*preload, "=")
		if !ok {
			fmt.Fprintf(stderr, "adaptivelinkd: -preload wants name=path, got %q\n", *preload)
			return 2
		}
		if _, err := svc.GetIndex(name); err == nil {
			// Reloaded from the data dir (with any post-load upserts the
			// CSV has never seen); the CSV is only the first boot's seed.
			log.Info("preload skipped, index reloaded from data dir", "index", name)
		} else {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(stderr, "adaptivelinkd: %v\n", err)
				return 1
			}
			tuples, _, err := adaptivelink.LoadRelationCSV(bufio.NewReader(f), path, *preloadKey)
			f.Close()
			if err != nil {
				fmt.Fprintf(stderr, "adaptivelinkd: preload %s: %v\n", path, err)
				return 1
			}
			info, err := svc.CreateIndex(name, adaptivelink.IndexOptions{Q: *q, Theta: *theta, Shards: *shards}, tuples)
			if err != nil {
				fmt.Fprintf(stderr, "adaptivelinkd: preload: %v\n", err)
				return 1
			}
			log.Info("preloaded index", "index", name, "tuples", info.Size, "path", path)
		}
	}

	// Optional debug listener: pprof on its own address, so profiling
	// never shares a port (or an exposure decision) with the API.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "adaptivelinkd: debug listener: %v\n", err)
			return 1
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux}
		go debugSrv.Serve(dln)
		dbound := dln.Addr().String()
		log.Info("debug listener on", "addr", dbound)
		if *debugFile != "" {
			if err := os.WriteFile(*debugFile, []byte(dbound), 0o644); err != nil {
				fmt.Fprintf(stderr, "adaptivelinkd: %v\n", err)
				return 1
			}
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "adaptivelinkd: %v\n", err)
		return 1
	}
	bound := ln.Addr().String()
	log.Info("listening", "addr", bound, "workers", svc.Config().Workers, "data_dir", *dataDir)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			fmt.Fprintf(stderr, "adaptivelinkd: %v\n", err)
			return 1
		}
	}

	srv := &http.Server{Handler: service.NewHandler(svc)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "adaptivelinkd: serve: %v\n", err)
		return 1
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, wait for in-flight handlers (each
	// of which runs its link request to the end), then close the
	// service.
	log.Info("draining", "timeout", *drainWait)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	code := 0
	if err := srv.Shutdown(shCtx); err != nil {
		fmt.Fprintf(stderr, "adaptivelinkd: shutdown: %v\n", err)
		code = 1
	}
	if debugSrv != nil {
		debugSrv.Shutdown(shCtx)
	}
	if err := svc.Drain(shCtx); err != nil {
		// Timed out with requests still in flight: report the unclean
		// drain and let process exit reap them — Close would only block
		// further on the same stragglers.
		fmt.Fprintf(stderr, "adaptivelinkd: drain: %v\n", err)
		return 1
	}
	svc.Close()
	// Plain-text banner, deliberately outside the structured log: smoke
	// scripts grep for it as the clean-drain marker.
	fmt.Fprintln(stdout, "adaptivelinkd: drained, bye")
	return code
}
