package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	janus "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
)

// runServe is the long-running multi-tenant transaction service over the
// JANUS runtime (DESIGN.md §12; its endpoints are listed in README's
// Serving section). With -data-dir set, every tenant keeps a write-ahead
// journal appended before a batch is acked and recovers from it on boot
// (DESIGN.md §13).
//
// Shutdown: SIGTERM, SIGINT or the end of ctx stops intake (new submits
// are shed with a typed 503 "draining") and drains in-flight batches
// under -drain-timeout. If the drain deadline expires, every tenant's
// flight-recorder ring is dumped to -flight-dir (replayable with
// `janus replay`) and the command fails.
func runServe(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("serve", stderr)
	var (
		addr         = fs.String("addr", ":8085", "listen address")
		threads      = fs.Int("threads", 0, "worker threads per tenant runner (0 = GOMAXPROCS)")
		learn        = fs.Bool("learn-online", true, "prove and cache commutativity conditions at detection time (online training)")
		maxTenants   = fs.Int("max-tenants", 0, "tenant namespace bound (0 = default)")
		maxInflight  = fs.Int("max-inflight", 0, "per-tenant in-flight cap; a submit past it is shed with 429 (0 = default 32)")
		retryBudget  = fs.Int("retry-budget", 0, "per-task speculation retry budget (0 = default)")
		defDeadline  = fs.Duration("default-deadline", 0, "deadline for batches that declare none (0 = default 10s)")
		maxDeadline  = fs.Duration("max-deadline", 0, "cap on client-declared deadlines (0 = default 60s)")
		backoffBase  = fs.Duration("backoff", time.Millisecond, "base of the bounded exponential retry backoff")
		backoffMax   = fs.Duration("backoff-max", 32*time.Millisecond, "cap of the retry backoff")
		flightChunks = fs.Int("flight-chunks", 0, "flight-recorder ring size in sealed chunks per tenant (0 = default)")
		flightDir    = fs.String("flight-dir", ".", "directory for flight-recorder dumps on abnormal exit")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "budget for draining in-flight batches on shutdown")
		dataDir      = fs.String("data-dir", "", "directory for per-tenant durable journals; empty serves in-memory only")
		fsyncMode    = fs.String("fsync", "always", "journal fsync policy: always (ack => durable), group (interval fsync), never")
		fsyncIvl     = fs.Duration("fsync-interval", 0, "group-commit fsync cadence under -fsync group (0 = default 25ms)")
		segBytes     = fs.Int64("segment-bytes", 0, "journal segment rotation size (0 = default 4MiB)")
		snapEvery    = fs.Int("snapshot-every", 0, "snapshot + truncate cadence in applied batches per tenant (0 = default 1024, negative disables)")
		dedupWindow  = fs.Int("dedup-window", 0, "exactly-once retention: duplicate batch IDs are refused within this many most recent batches per tenant (0 = default 1048576, negative unbounded)")
		det          = detectorFlag(fs)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	logger := log.New(stderr, "janus serve: ", log.LstdFlags)
	policy, err := wal.ParsePolicy(*fsyncMode)
	if err != nil {
		return usageError{err}
	}
	rcfg := janus.Config{
		Threads:     *threads,
		LearnOnline: *learn,
		Backoff:     janus.Backoff{Base: *backoffBase, Max: *backoffMax},
	}
	if det.writeSet {
		rcfg.Detection = janus.DetectWriteSet
	}
	srv := serve.NewServer(serve.Config{
		Runner:          rcfg,
		MaxTenants:      *maxTenants,
		MaxInflight:     *maxInflight,
		RetryBudget:     *retryBudget,
		DefaultDeadline: *defDeadline,
		MaxDeadline:     *maxDeadline,
		FlightChunks:    *flightChunks,
		DataDir:         *dataDir,
		Fsync:           policy,
		FsyncInterval:   *fsyncIvl,
		SegmentBytes:    *segBytes,
		SnapshotEvery:   *snapEvery,
		DedupWindow:     *dedupWindow,
	})
	obs.PublishVars("janus.serve", func() any { return srv.Vars() })
	if *dataDir != "" {
		names, err := srv.RecoverTenants()
		if err != nil {
			return fmt.Errorf("boot recovery failed: %w", err)
		}
		logger.Printf("durable (data-dir=%s fsync=%s); recovered %d tenant(s) %v", *dataDir, policy, len(names), names)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	logger.Printf("listening on %s (detector=%s threads=%d)", ln.Addr(), det, *threads)

	select {
	case err := <-serveErr:
		// The listener died out from under the service: dump and fail.
		dumpFlight(srv, *flightDir, logger)
		return fmt.Errorf("serve error: %w", err)
	case <-ctx.Done():
		logger.Printf("shutdown requested: draining (budget %s)", *drainTimeout)
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		dumpFlight(srv, *flightDir, logger)
		return fmt.Errorf("drain failed: %w", err)
	}
	// In-flight work is done: a final journal sync + close makes the
	// planned shutdown durable under every fsync policy.
	if err := srv.CloseJournals(); err != nil {
		logger.Printf("closing journals: %v", err)
	}
	// Close the listener and any idle or streaming connections. A
	// straggling timeline follower must not outlive the drain budget, so
	// fall back to a hard close.
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		_ = hs.Close()
	}
	logger.Printf("drained cleanly")
	return nil
}

// dumpFlight writes every tenant's flight-recorder ring for post-mortem
// replay; best-effort on the abnormal-exit path.
func dumpFlight(s *serve.Server, dir string, logger *log.Logger) {
	paths, err := s.DumpFlight(dir)
	if err != nil {
		logger.Printf("flight dump: %v", err)
	}
	for _, p := range paths {
		logger.Printf("flight recorder dumped to %s (replay with janus replay)", p)
	}
}
