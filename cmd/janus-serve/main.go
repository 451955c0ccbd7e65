// Command janus-serve is a long-running multi-tenant transaction service
// over the JANUS runtime: clients POST batched transactional workloads to
// /submit and each tenant gets its own runner, committed state, spec
// cache handle, and flight recorder. Admission is one per-tenant in-flight
// cap (-max-inflight): a submit past it is shed with a typed, retryable
// 429 carrying a Retry-After hint. A task's conflicts are the runtime's
// business — a cache miss falls back to write-set detection for that one
// pair, and ordered commits bound each task's retries.
//
// Endpoints:
//
//	POST /submit?tenant=NAME    submit a batch (or X-Janus-Tenant header)
//	GET  /healthz               service + per-tenant health
//	GET  /varz                  expvar (janus.serve: per-tenant counters)
//	GET  /statez?tenant=NAME    committed values + state digest
//	GET  /journalz?tenant=NAME  applied batch IDs in order
//	GET  /timeline?tenant=NAME  NDJSON event stream (&follow=1 to tail)
//
// Shutdown: SIGTERM/SIGINT stops intake (new submits shed with a typed
// 503 "draining"), drains in-flight batches under -drain-timeout, and
// exits 0. If the drain deadline expires, the per-tenant flight-recorder
// rings are dumped to -flight-dir and the process exits 1 — the dumps are
// replayable with janus-replay.
//
// Durability: with -data-dir set, every tenant keeps a write-ahead
// journal appended before a batch is acked, so an acked batch survives
// kill -9 (at -fsync always; see the policy table in DESIGN.md §13) and
// a restart replays the journal through the sequential oracle with
// per-record digest verification. Duplicate submits return their
// original verdict as a 409 across restarts. Background snapshots every
// -snapshot-every batches bound recovery and truncate covered segments;
// torn or corrupt journal tails are truncated and counted in /healthz.
//
// Drive it with the janus-bench load generator:
//
//	janus-serve -addr :8085 &
//	janus-bench -serve http://127.0.0.1:8085 -serve-clients 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	janus "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	var (
		addr         = flag.String("addr", ":8085", "listen address")
		threads      = flag.Int("threads", 0, "worker threads per tenant runner (0 = GOMAXPROCS)")
		detector     = flag.String("detector", "seq", "conflict detector: seq or ws")
		learn        = flag.Bool("learn-online", true, "prove and cache commutativity conditions at detection time (online training)")
		maxTenants   = flag.Int("max-tenants", 0, "tenant namespace bound (0 = default)")
		maxInflight  = flag.Int("max-inflight", 0, "per-tenant in-flight cap; a submit past it is shed with 429 (0 = default 32)")
		retryBudget  = flag.Int("retry-budget", 0, "per-task speculation retry budget (0 = default)")
		defDeadline  = flag.Duration("default-deadline", 0, "deadline for batches that declare none (0 = default 10s)")
		maxDeadline  = flag.Duration("max-deadline", 0, "cap on client-declared deadlines (0 = default 60s)")
		backoffBase  = flag.Duration("backoff", time.Millisecond, "base of the bounded exponential retry backoff")
		backoffMax   = flag.Duration("backoff-max", 32*time.Millisecond, "cap of the retry backoff")
		flightChunks = flag.Int("flight-chunks", 0, "flight-recorder ring size in sealed chunks per tenant (0 = default)")
		flightDir    = flag.String("flight-dir", ".", "directory for flight-recorder dumps on abnormal exit")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "budget for draining in-flight batches on shutdown")
		dataDir      = flag.String("data-dir", "", "directory for per-tenant durable journals; empty serves in-memory only")
		fsyncMode    = flag.String("fsync", "always", "journal fsync policy: always (ack => durable), group (interval fsync), never")
		fsyncIvl     = flag.Duration("fsync-interval", 0, "group-commit fsync cadence under -fsync group (0 = default 25ms)")
		segBytes     = flag.Int64("segment-bytes", 0, "journal segment rotation size (0 = default 4MiB)")
		snapEvery    = flag.Int("snapshot-every", 0, "snapshot + truncate cadence in applied batches per tenant (0 = default 1024, negative disables)")
		dedupWindow  = flag.Int("dedup-window", 0, "exactly-once retention: duplicate batch IDs are refused within this many most recent batches per tenant (0 = default 1048576, negative unbounded)")
		chaosCrash   = flag.String("chaos-crash", "", "kill the process at the Nth visit of a wal crash point, as point:N (e.g. wal.append.after:100); testing only")
	)
	flag.Parse()

	rcfg := janus.Config{
		Threads:     *threads,
		LearnOnline: *learn,
		Backoff:     janus.Backoff{Base: *backoffBase, Max: *backoffMax},
	}
	switch *detector {
	case "seq":
		rcfg.Detection = janus.DetectSequence
	case "ws":
		rcfg.Detection = janus.DetectWriteSet
	default:
		log.Fatalf("janus-serve: unknown -detector %q (want seq or ws)", *detector)
	}

	policy, err := wal.ParsePolicy(*fsyncMode)
	if err != nil {
		log.Fatalf("janus-serve: %v", err)
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
		CrashHook:       crashHook(*chaosCrash),
	})
	obs.PublishVars("janus.serve", func() any { return srv.Vars() })
	if *dataDir != "" {
		names, rerr := srv.RecoverTenants()
		if rerr != nil {
			log.Fatalf("janus-serve: boot recovery failed: %v", rerr)
		}
		log.Printf("janus-serve: durable (data-dir=%s fsync=%s); recovered %d tenant(s) %v",
			*dataDir, policy, len(names), names)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("janus-serve: listen %s: %v", *addr, err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	log.Printf("janus-serve: listening on %s (detector=%s threads=%d)", ln.Addr(), *detector, *threads)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-serveErr:
		// The listener died out from under us: dump state and fail.
		log.Printf("janus-serve: serve error: %v", err)
		dumpFlight(srv, *flightDir)
		os.Exit(1)
	case sig := <-sigc:
		log.Printf("janus-serve: %s: draining (budget %s)", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("janus-serve: drain failed: %v; dumping flight recorders", err)
		dumpFlight(srv, *flightDir)
		os.Exit(1)
	}
	// In-flight work is done: a final journal sync + close makes the
	// planned shutdown durable under every fsync policy.
	if err := srv.CloseJournals(); err != nil {
		log.Printf("janus-serve: closing journals: %v", err)
	}
	// Close the listener and any idle or streaming connections. A
	// straggling timeline follower must not outlive the drain budget, so
	// fall back to a hard close.
	sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer scancel()
	if err := hs.Shutdown(sctx); err != nil {
		_ = hs.Close()
	}
	log.Printf("janus-serve: drained cleanly")
}

// crashHook arms a real kill at the Nth visit of one wal crash point
// ("point:N"). Unlike the in-process poison hook the soak tests use,
// the daemon dies for real — SIGKILL semantics, page cache survives —
// which is what the crash-matrix smoke script exercises.
func crashHook(spec string) wal.Hook {
	if spec == "" {
		return nil
	}
	i := strings.LastIndex(spec, ":")
	if i <= 0 {
		log.Fatalf("janus-serve: -chaos-crash wants point:N, got %q", spec)
	}
	point := spec[:i]
	n, err := strconv.ParseInt(spec[i+1:], 10, 64)
	if err != nil || n <= 0 {
		log.Fatalf("janus-serve: -chaos-crash count in %q: want a positive integer", spec)
	}
	var visits atomic.Int64
	return func(p string) bool {
		if p != point {
			return false
		}
		if visits.Add(1) == n {
			log.Printf("janus-serve: chaos crash at %s (visit %d); dying", point, n)
			os.Exit(137)
		}
		return false
	}
}

// dumpFlight writes every tenant's flight-recorder ring for post-mortem
// replay; best-effort on the abnormal-exit path.
func dumpFlight(s *serve.Server, dir string) {
	paths, err := s.DumpFlight(dir)
	if err != nil {
		log.Printf("janus-serve: flight dump: %v", err)
	}
	for _, p := range paths {
		fmt.Fprintf(os.Stderr, "janus-serve: flight recorder dumped to %s (replay with janus-replay)\n", p)
	}
}
