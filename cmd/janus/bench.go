package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/bench/loadgen"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/workloads"
)

// runBench regenerates the §7 evaluation: Tables 5 and 6 and Figures 9,
// 10 and 11, all of them unless -figure or -table picks one. With -json
// or -trace it instead profiles one wall-clock run per workload (default
// jfilesync): -trace writes a Chrome trace-event file (per-worker lanes,
// aborts with reason and location, cache queries; open it in Perfetto),
// -json the RunStats, CacheStats and timings. Profiled runs take -chaos
// (deterministic fault injection, including an early storm of 500 forced
// cache misses), -backoff (bounded exponential retry backoff) and
// -record (a replayable op trace). A failed profiled run exits 1 and, in
// JSON, carries its failure in the report's error field.
func runBench(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("bench", stderr)
	var (
		figure   = fs.Int("figure", 0, "regenerate one figure (9, 10, or 11); 0 = all")
		table    = fs.Int("table", 0, "print one table (5 or 6); 0 = all")
		runs     = fs.Int("runs", 0, "measured production runs per configuration (0 = mode default; paper: 10)")
		threads  = fs.String("threads", "1,2,4,8", "comma-separated thread counts")
		names    = fs.String("workloads", "", "comma-separated benchmark filter (default all)")
		mode     = fs.String("mode", "sim", "measurement mode: sim (virtual-time machine) or wall (real goroutines)")
		training = fs.Bool("training-summary", false, "also print the per-benchmark training reports")
		timeline = fs.String("timeline", "", "print the simulated schedule of one benchmark and exit")
		cores    = fs.Int("cores", 0, "override the simulated machine's core count (0 = the paper's 4-core/2-SMT testbed)")
		traceOut = fs.String("trace", "", "profile one traced wall-clock run and write a Chrome trace-event file here (default workload: jfilesync)")
		obsAddr  = fs.String("obs", "", "serve /debug/vars and /debug/pprof on this address (e.g. :6060)")
		chaosSd  = fs.Int64("chaos", 0, "run profiled runs under deterministic fault injection with this seed (0 = off): forced aborts, stretched commit windows, forced cache misses and an early miss storm")
		backoff  = fs.Duration("backoff", 0, "base of the bounded exponential retry backoff, e.g. 50us (0 = retry immediately)")
		record   = fs.String("record", "", "capture each profiled run as a replayable binary op-trace at this path (replay with janus replay)")
		opsTxn   = fs.Int("ops-per-txn", 0, "operations per transaction for the synthetic heavy workload (selects -workloads heavy when no filter is given; 0 = heavy default)")
		txnSkew  = fs.Float64("txn-skew", 0, "heavy workload location skew: 0 = uniform access, larger values concentrate the footprint on a hot subset")
		size     = fs.String("size", "production", "input scale: production, training or small")
		det      = detectorFlag(fs)
		jsonOut  = jsonFlag(fs)
	)
	if err := parse(fs, args); err != nil {
		return err
	}

	sizes := map[string]workloads.Size{
		"production": workloads.Production, "training": workloads.Training, "small": workloads.Small,
	}
	sz, ok := sizes[*size]
	if !ok {
		return usageError{fmt.Errorf("unknown -size %q (want production, training or small)", *size)}
	}
	opts := bench.Opts{
		Size: sz, ProdRuns: *runs, ChaosSeed: *chaosSd, BackoffBase: *backoff,
		RecordPath: *record, OpsPerTxn: *opsTxn, TxnSkew: *txnSkew,
	}
	if (*opsTxn > 0 || *txnSkew != 0) && *names == "" {
		// The shape knobs only mean something to the synthetic heavy
		// workload; select it rather than silently profiling jfilesync.
		*names = workloads.HeavyName
	}
	switch *mode {
	case "sim":
		opts.Mode = bench.Simulated
	case "wall":
		opts.Mode = bench.WallClock
	default:
		return usageError{fmt.Errorf("unknown -mode %q (want sim or wall)", *mode)}
	}
	for _, part := range strings.Split(*threads, ",") {
		th, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || th < 1 {
			return usageError{fmt.Errorf("bad -threads entry %q", part)}
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
	profiled := *traceOut != "" || *jsonOut
	if !profiled && (*chaosSd != 0 || *backoff != 0 || *record != "") {
		return usageError{errors.New("-chaos/-backoff/-record apply to profiled wall-clock runs; add -json or -trace")}
	}

	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "janus bench: debug endpoint on http://%s/debug/vars\n", addr)
	}
	if *timeline != "" {
		return bench.Timeline(stdout, *timeline, opts.Threads[len(opts.Threads)-1], opts)
	}
	if profiled {
		d := bench.Seq
		if det.writeSet {
			d = bench.WS
		}
		return profileRuns(stdout, stderr, opts, *traceOut, *jsonOut, d)
	}

	all := *figure == 0 && *table == 0
	if all || *table == 5 {
		bench.Table5(stdout)
		fmt.Fprintln(stdout)
	}
	if all || *table == 6 {
		bench.Table6(stdout)
		fmt.Fprintln(stdout)
	}
	for _, f := range []struct {
		n   int
		run func(io.Writer, bench.Opts) error
	}{{9, bench.Figure9}, {10, bench.Figure10}, {11, bench.Figure11}} {
		if all || *figure == f.n {
			if err := f.run(stdout, opts); err != nil {
				return err
			}
			fmt.Fprintln(stdout)
		}
	}
	if *training {
		return bench.TrainingSummary(stdout)
	}
	return nil
}

// profileRuns is bench's observability mode: one wall-clock production
// run per selected workload (default jfilesync), optionally traced,
// reported as JSON or a human summary. A failed run still yields its
// report, with the error and whatever partial stats were gathered, and
// then fails the command instead of passing partial stats off as success.
func profileRuns(stdout, stderr io.Writer, opts bench.Opts, traceOut string, jsonOut bool, det bench.Detection) error {
	names := opts.Workloads
	if len(names) == 0 {
		names = []string{"jfilesync"}
	}
	if traceOut != "" && len(names) > 1 {
		return usageError{fmt.Errorf("-trace profiles a single workload; got %d (use -workloads)", len(names))}
	}
	if opts.RecordPath != "" && len(names) > 1 {
		return usageError{fmt.Errorf("-record captures a single workload; got %d (use -workloads)", len(names))}
	}
	threads := opts.Threads[len(opts.Threads)-1]
	var reports []bench.RunReport
	var failed []string
	for _, name := range names {
		w, err := opts.Resolve(name)
		if err != nil {
			return err
		}
		var tracer *obs.Trace
		if traceOut != "" {
			tracer = obs.NewTrace(0)
			obs.PublishVars("janus.obs", func() any { return tracer.Vars() })
		}
		rep, err := bench.ProfileRun(w, det, threads, opts, tracer)
		reports = append(reports, rep)
		if err != nil {
			failed = append(failed, name)
			fmt.Fprintf(stderr, "janus bench: %s failed: %v\n", name, err)
			continue
		}
		if traceOut != "" {
			if err := fsio.WriteAtomicFunc(traceOut, tracer.WriteChromeJSON); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "janus bench: wrote %s (%d workers, open in https://ui.perfetto.dev)\n",
				traceOut, tracer.Workers())
		}
		if rep.Record != nil {
			fmt.Fprintf(stderr, "janus bench: recorded %s (%d commits, %d events, %d bytes; replay with janus replay)\n",
				rep.RecordPath, rep.Record.Commits, rep.Record.Events, rep.Record.Bytes)
		}
	}
	if jsonOut {
		if err := bench.WriteJSON(stdout, reports); err != nil {
			return err
		}
	} else {
		for _, rep := range reports {
			if rep.Error != "" {
				fmt.Fprintf(stdout, "%s: detector=%s threads=%d FAILED: %s\n",
					rep.Workload, rep.Detector, rep.Threads, rep.Error)
				continue
			}
			fmt.Fprintf(stdout, "%s: detector=%s threads=%d tasks=%d commits=%d retries=%d speedup=%.2f\n",
				rep.Workload, rep.Detector, rep.Threads, rep.Tasks, rep.Run.Commits, rep.Run.Retries, rep.Speedup)
			if rep.Run.BackoffWaits > 0 {
				fmt.Fprintf(stdout, "  contention: backoff-waits=%d\n", rep.Run.BackoffWaits)
			}
			if rep.Run.ValidationsSkipped > 0 {
				fmt.Fprintf(stdout, "  incremental validation: skipped=%d already-validated entries\n",
					rep.Run.ValidationsSkipped)
			}
			if rep.Chaos != nil {
				fmt.Fprintf(stdout, "  chaos(seed=%d): %+v\n", rep.ChaosSeed, *rep.Chaos)
			}
			if len(rep.Run.AbortReasons) > 0 {
				fmt.Fprintf(stdout, "  abort reasons: %v\n", rep.Run.AbortReasons)
			}
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runLoadgen drives a running `janus serve` with deterministic
// concurrent batch traffic and then verifies its contract: every
// accepted batch is in the tenant's journal exactly once, and the state
// digest equals a sequential-oracle replay of the journal. A lost or
// duplicated batch, a digest mismatch or an untyped shed reply fails the
// command: this is the gating half of serve-smoke.
func runLoadgen(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("loadgen", stderr)
	var (
		url     = fs.String("url", "http://127.0.0.1:8085", "base URL of the running service")
		tenants = fs.Int("tenants", 0, "tenant count (0 = default)")
		clients = fs.Int("clients", 0, "concurrent clients per tenant (0 = default)")
		batches = fs.Int("batches", 0, "batches per client (0 = default)")
		seqBase = fs.Int("seq-base", 0, "batch sequence offset; set to the previous run's -batches when driving a restarted durable service")
		resume  = fs.Bool("resume", false, "resubmit every pre-crash batch ID below -seq-base first, requiring 409 original-verdict or fresh 200 for each (crash-restart verification)")
		jsonOut = jsonFlag(fs)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	rep, err := loadgen.Run(stderr, loadgen.Opts{
		URL: *url, Tenants: *tenants, Clients: *clients, Batches: *batches,
		SeqBase: *seqBase, Resume: *resume,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := loadgen.WriteJSON(stdout, rep); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "loadgen: submitted=%d accepted=%d sheds=%d deadline-misses=%d gave-up=%d resubmitted=%d recovered=%d\n",
			rep.Submitted, rep.Accepted, rep.Sheds, rep.Deadlines, rep.GaveUp, rep.Resubmitted, rep.Recovered)
		for _, tr := range rep.Tenants {
			fmt.Fprintf(stdout, "  tenant %s: applied=%d digest=%s ok=%v\n", tr.Tenant, tr.Applied, tr.Digest, tr.OK)
		}
	}
	if !rep.OK {
		return errors.New("verification FAILED")
	}
	return nil
}
