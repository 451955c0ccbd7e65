// Command janus-bench regenerates the JANUS evaluation (§7): Figures 9,
// 10, and 11 and Tables 5 and 6, plus profiled single runs with event
// tracing and machine-readable stats.
//
// Usage:
//
//	janus-bench                         # everything, production inputs
//	janus-bench -figure 9               # one figure
//	janus-bench -table 5                # one table
//	janus-bench -size small -runs 2     # faster, reduced inputs
//	janus-bench -workloads jfilesync,pmd
//	janus-bench -mode wall              # wall-clock runtime (multi-core hosts)
//
// Observability:
//
//	janus-bench -trace out.json -workloads jfilesync
//	    run one traced production run and write a Chrome trace-event
//	    file (open in Perfetto / chrome://tracing): per-worker lanes,
//	    abort events with reason + location, cache queries
//	janus-bench -json -workloads jfilesync,pmd
//	    emit full RunStats + CacheStats + timing as JSON
//	janus-bench -obs :6060 ...
//	    serve /debug/vars (expvar) and /debug/pprof during the run
//
// Robustness:
//
//	janus-bench -json -chaos 42 -workloads jfilesync
//	    profile under deterministic fault injection (forced aborts,
//	    stretched commit windows, forced cache misses, and an early storm
//	    of 500 misses that the per-pair write-set fallback answers) with
//	    seed 42; the report carries the injected-fault counts
//	janus-bench -json -backoff 50us ...
//	    enable contention management: bounded exponential backoff with
//	    jitter between a task's abort and its retry (retries need no other
//	    bound: each is charged to another task's commit, Theorem 4.1)
//
// A failed run (task error, retry-guard livelock) exits nonzero and, in
// JSON mode, carries the failure in the report's `error` field instead of
// presenting partial stats as success.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	loadgenpkg "repro/internal/bench/loadgen"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/workloads"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "regenerate one figure (9, 10, or 11); 0 = all")
		table    = flag.Int("table", 0, "print one table (5 or 6); 0 = all")
		size     = flag.String("size", "production", "input scale: production, training, or small")
		runs     = flag.Int("runs", 0, "measured production runs per configuration (0 = mode default; paper: 10)")
		threads  = flag.String("threads", "1,2,4,8", "comma-separated thread counts")
		names    = flag.String("workloads", "", "comma-separated benchmark filter (default all)")
		mode     = flag.String("mode", "sim", "measurement mode: sim (virtual-time machine) or wall (real goroutines)")
		training = flag.Bool("training-summary", false, "also print the per-benchmark training reports")
		timeline = flag.String("timeline", "", "print the simulated schedule of one benchmark and exit")
		cores    = flag.Int("cores", 0, "override the simulated machine's core count (0 = the paper's 4-core/2-SMT testbed)")
		traceOut = flag.String("trace", "", "profile one traced wall-clock run and write a Chrome trace-event file here (default workload: jfilesync)")
		jsonOut  = flag.Bool("json", false, "profile wall-clock runs and emit RunStats + CacheStats + timing as JSON")
		detName  = flag.String("detector", "seq", "detector for profiled runs: seq or ws")
		obsAddr  = flag.String("obs", "", "serve /debug/vars and /debug/pprof on this address (e.g. :6060)")
		chaosSd  = flag.Int64("chaos", 0, "run profiled runs under deterministic fault injection with this seed (0 = off): forced aborts, stretched commit windows, forced cache misses and an early miss storm")
		backoff  = flag.Duration("backoff", 0, "base of the bounded exponential retry backoff, e.g. 50us (0 = retry immediately)")
		record   = flag.String("record", "", "capture each profiled run as a replayable binary op-trace at this path (replay with janus-replay)")
		opsTxn   = flag.Int("ops-per-txn", 0, "operations per transaction for the synthetic heavy workload (selects -workloads heavy when no filter is given; 0 = heavy default)")
		txnSkew  = flag.Float64("txn-skew", 0, "heavy workload location skew: 0 = uniform access, larger values concentrate the footprint on a hot subset")
		serveURL = flag.String("serve", "", "load-generator client mode: drive a running janus-serve at this base URL and verify the exactly-once/digest contract (exits nonzero on violation)")
		srvTen   = flag.Int("serve-tenants", 0, "loadgen: tenant count (0 = default)")
		srvCli   = flag.Int("serve-clients", 0, "loadgen: concurrent clients per tenant (0 = default)")
		srvBat   = flag.Int("serve-batches", 0, "loadgen: batches per client (0 = default)")
		srvBase  = flag.Int("serve-seq-base", 0, "loadgen: batch sequence offset; set to the previous run's -serve-batches when driving a restarted durable daemon")
		srvRes   = flag.Bool("serve-resume", false, "loadgen: resubmit every pre-crash batch ID below -serve-seq-base first, requiring 409 original-verdict or fresh 200 for each (crash-restart verification)")
	)
	flag.Parse()

	if *serveURL != "" {
		loadgen(*serveURL, *srvTen, *srvCli, *srvBat, *srvBase, *srvRes, *jsonOut)
		return
	}

	opts := bench.Opts{
		ProdRuns: *runs, ChaosSeed: *chaosSd, BackoffBase: *backoff,
		RecordPath: *record, OpsPerTxn: *opsTxn, TxnSkew: *txnSkew,
	}
	if (*opsTxn > 0 || *txnSkew != 0) && *names == "" {
		// The shape knobs only mean something to the synthetic heavy
		// workload; select it rather than silently profiling jfilesync.
		*names = workloads.HeavyName
	}
	switch *size {
	case "production":
		opts.Size = workloads.Production
	case "training":
		opts.Size = workloads.Training
	case "small":
		opts.Size = workloads.Small
	default:
		fatalf("unknown -size %q", *size)
	}
	switch *mode {
	case "sim":
		opts.Mode = bench.Simulated
	case "wall":
		opts.Mode = bench.WallClock
	default:
		fatalf("unknown -mode %q", *mode)
	}
	for _, part := range strings.Split(*threads, ",") {
		var th int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &th); err != nil || th < 1 {
			fatalf("bad -threads entry %q", part)
		}
		opts.Threads = append(opts.Threads, th)
	}
	if *names != "" {
		opts.Workloads = strings.Split(*names, ",")
	}
	if *cores > 0 {
		m := stm.DefaultMachine()
		m.Cores = *cores
		opts.Machine = &m
	}

	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		check(err)
		fmt.Fprintf(os.Stderr, "janus-bench: debug endpoint on http://%s/debug/vars\n", addr)
	}

	out := os.Stdout
	if *timeline != "" {
		check(bench.Timeline(out, *timeline, opts.Threads[len(opts.Threads)-1], opts))
		return
	}
	if *traceOut != "" || *jsonOut {
		profile(out, opts, *traceOut, *jsonOut, *detName)
		return
	}
	if *chaosSd != 0 || *backoff != 0 || *record != "" {
		fatalf("-chaos/-backoff/-record apply to profiled wall-clock runs; add -json or -trace")
	}
	wantFig := func(n int) bool { return *figure == 0 && *table == 0 || *figure == n }
	wantTab := func(n int) bool { return *figure == 0 && *table == 0 || *table == n }

	if wantTab(5) {
		bench.Table5(out)
		fmt.Fprintln(out)
	}
	if wantTab(6) {
		bench.Table6(out)
		fmt.Fprintln(out)
	}
	if wantFig(9) {
		check(bench.Figure9(out, opts))
		fmt.Fprintln(out)
	}
	if wantFig(10) {
		check(bench.Figure10(out, opts))
		fmt.Fprintln(out)
	}
	if wantFig(11) {
		check(bench.Figure11(out, opts))
		fmt.Fprintln(out)
	}
	if *training {
		check(bench.TrainingSummary(out))
	}
}

// profile runs the observability mode: one wall-clock production run per
// selected workload (default jfilesync), optionally traced, reported as
// JSON or a human summary.
func profile(out *os.File, opts bench.Opts, traceOut string, jsonOut bool, detName string) {
	det := bench.Seq
	switch detName {
	case "seq":
	case "ws":
		det = bench.WS
	default:
		fatalf("unknown -detector %q (want seq or ws)", detName)
	}
	names := opts.Workloads
	if len(names) == 0 {
		names = []string{"jfilesync"}
	}
	if traceOut != "" && len(names) > 1 {
		fatalf("-trace profiles a single workload; got %d (use -workloads)", len(names))
	}
	if opts.RecordPath != "" && len(names) > 1 {
		fatalf("-record captures a single workload; got %d (use -workloads)", len(names))
	}
	threads := opts.Threads[len(opts.Threads)-1]
	var reports []bench.RunReport
	failed := false
	for _, name := range names {
		w, err := opts.Resolve(name)
		check(err)
		var tracer *obs.Trace
		if traceOut != "" {
			tracer = obs.NewTrace(0)
			obs.PublishVars("janus.obs", func() any { return tracer.Vars() })
		}
		// A failed run still yields a report: the error lands in the
		// JSON `error` field (with whatever partial stats were gathered)
		// and the process exits nonzero, instead of reporting partial
		// stats as success.
		rep, err := bench.ProfileRun(w, det, threads, opts, tracer)
		reports = append(reports, rep)
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "janus-bench: %s failed: %v\n", name, err)
			continue
		}
		if traceOut != "" {
			f, err := os.Create(traceOut)
			check(err)
			check(tracer.WriteChromeJSON(f))
			check(f.Close())
			fmt.Fprintf(os.Stderr, "janus-bench: wrote %s (%d workers, open in https://ui.perfetto.dev)\n",
				traceOut, tracer.Workers())
		}
		if rep.Record != nil {
			fmt.Fprintf(os.Stderr, "janus-bench: recorded %s (%d commits, %d events, %d bytes; replay with janus-replay)\n",
				rep.RecordPath, rep.Record.Commits, rep.Record.Events, rep.Record.Bytes)
		}
	}
	if jsonOut {
		check(bench.WriteJSON(out, reports))
	} else {
		for _, rep := range reports {
			if rep.Error != "" {
				fmt.Fprintf(out, "%s: detector=%s threads=%d FAILED: %s\n",
					rep.Workload, rep.Detector, rep.Threads, rep.Error)
				continue
			}
			fmt.Fprintf(out, "%s: detector=%s threads=%d tasks=%d commits=%d retries=%d speedup=%.2f\n",
				rep.Workload, rep.Detector, rep.Threads, rep.Tasks, rep.Run.Commits, rep.Run.Retries, rep.Speedup)
			if rep.Run.BackoffWaits > 0 {
				fmt.Fprintf(out, "  contention: backoff-waits=%d\n", rep.Run.BackoffWaits)
			}
			if rep.Run.ValidationsSkipped > 0 {
				fmt.Fprintf(out, "  incremental validation: skipped=%d already-validated entries\n",
					rep.Run.ValidationsSkipped)
			}
			if rep.Chaos != nil {
				fmt.Fprintf(out, "  chaos(seed=%d): %+v\n", rep.ChaosSeed, *rep.Chaos)
			}
			if len(rep.Run.AbortReasons) > 0 {
				fmt.Fprintf(out, "  abort reasons: %v\n", rep.Run.AbortReasons)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// loadgen runs the janus-serve client mode: deterministic concurrent
// batch traffic plus the exactly-once / oracle-digest verification. Any
// lost or duplicated accepted batch, digest mismatch, or untyped shed
// reply exits nonzero — this is the gating half of the CI serving smoke.
func loadgen(url string, tenants, clients, batches, seqBase int, resume, jsonOut bool) {
	rep, err := loadgenpkg.Run(os.Stderr, loadgenpkg.Opts{
		URL:     url,
		Tenants: tenants,
		Clients: clients,
		Batches: batches,
		SeqBase: seqBase,
		Resume:  resume,
	})
	check(err)
	if jsonOut {
		check(loadgenpkg.WriteJSON(os.Stdout, rep))
	} else {
		fmt.Printf("loadgen: submitted=%d accepted=%d sheds=%d deadline-misses=%d gave-up=%d resubmitted=%d recovered=%d\n",
			rep.Submitted, rep.Accepted, rep.Sheds, rep.Deadlines, rep.GaveUp, rep.Resubmitted, rep.Recovered)
		for _, tr := range rep.Tenants {
			fmt.Printf("  tenant %s: applied=%d digest=%s ok=%v\n", tr.Tenant, tr.Applied, tr.Digest, tr.OK)
		}
	}
	if !rep.OK {
		fatalf("loadgen verification FAILED")
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "janus-bench: "+format+"\n", args...)
	os.Exit(1)
}
