// Command janus-replay deterministically re-executes a recorded op trace
// (see internal/rec and `janus-bench -record`) and verifies the outcome
// against the trace's own oracle digest.
//
// Replay runs up to two stages:
//
//  1. Sequential oracle replay: the recorded transaction logs are applied
//     over the trace's initial-state snapshot in commit order. By
//     serializability this must reproduce the recorded final state
//     exactly, so a digest mismatch means a corrupted or internally
//     inconsistent trace (or a runtime bug — which is the point).
//  2. Parallel replay (skipped with -seq-only): the same transactions run
//     again through the real stm runtime with write-set detection and the
//     recorded commit order pinned (ordered commit over tasks arranged in
//     commit order), turning the captured production run into a live —
//     but still deterministic — protocol workout.
//
// The report is a bench.RunReport (-json), so cmd/janus-benchjson can fold
// replayed production captures into a benchmark trajectory
// (BENCH_replay.json). Exit status is nonzero on any digest mismatch, on
// lossy/truncated traces, and on decode failures.
//
// Usage:
//
//	janus-replay trace.bin                # verify + parallel replay
//	janus-replay -json trace.bin          # machine-readable report
//	janus-replay -seq-only trace.bin      # oracle replay only
//	janus-replay -threads 8 trace.bin     # override recorded worker count
//	janus-replay -verify-ops trace.bin    # also check per-op observed values
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/conflict"
	"repro/internal/fsio"
	"repro/internal/rec"
	"repro/internal/state"
	"repro/internal/workloads"
)

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit the replay report as a bench.RunReport JSON array")
		threads   = flag.Int("threads", 0, "worker count for the parallel replay (0 = the recorded count)")
		seqOnly   = flag.Bool("seq-only", false, "run only the sequential oracle replay, skip the parallel stm re-execution")
		verifyOps = flag.Bool("verify-ops", false, "additionally verify every op's result against the recorded observed value during sequential replay (reads of locations the recorded workload relaxes for RAW are skipped and counted)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fatalf("usage: janus-replay [flags] <trace file>")
	}
	path := flag.Arg(0)

	f, err := os.Open(path)
	check(err)
	trace, err := rec.ReadTrace(f)
	f.Close()
	if err != nil {
		var terr *fsio.FrameError
		if errors.As(err, &terr) {
			fatalf("%s: rejected (%s): %v", path, terr.Reason, err)
		}
		fatalf("%s: %v", path, err)
	}

	info := bench.ReplayInfo{
		Trace:      path,
		Commits:    int64(len(trace.Txns)),
		DigestKind: trace.DigestKind.String(),
		Match:      true,
	}
	if trace.DigestKind != rec.DigestNone {
		info.RecordedDigest = rec.FormatDigest(trace.Digest)
	}
	rep := bench.RunReport{
		Workload: trace.Meta.Workload,
		Detector: "replay/write-set",
		Threads:  *threads,
		Size:     "replay",
		Tasks:    len(trace.Txns),
		Replay:   &info,
	}
	if rep.Threads == 0 {
		rep.Threads = trace.Meta.Threads
	}
	fail := func(format string, args ...any) {
		rep.Error = fmt.Sprintf(format, args...)
		info.Match = false
		emit(&rep, *jsonOut)
		os.Exit(1)
	}

	seqStart := time.Now()
	var seqState *state.State
	if *verifyOps {
		// A read the recorded workload tolerates RAW conflicts on may
		// have been stale by design: VerifySequential leaves it
		// unchecked. A workload this build does not know (a library
		// capture) is checked in full.
		var relax *conflict.Relaxations
		if w, err := workloads.ByName(trace.Meta.Workload); err == nil {
			relax = w.Relaxations
		}
		seqState, info.RelaxedReads, err = trace.VerifySequential(relax)
	} else {
		seqState, err = trace.ReplaySequential()
	}
	if err != nil {
		fail("sequential replay: %v", err)
	}
	rep.SequentialNs = int64(time.Since(seqStart))
	info.SequentialDigest = rec.FormatDigest(rec.Digest(seqState))
	if trace.DigestKind != rec.DigestNone && info.SequentialDigest != info.RecordedDigest {
		fail("sequential replay digest %s != recorded %s (%s)",
			info.SequentialDigest, info.RecordedDigest, trace.DigestKind)
	}

	if !*seqOnly {
		parStart := time.Now()
		parState, stats, err := trace.Replay(*threads)
		if err != nil {
			fail("parallel replay: %v", err)
		}
		rep.ElapsedNs = int64(time.Since(parStart))
		rep.Run = stats
		info.ParallelDigest = rec.FormatDigest(rec.Digest(parState))
		if info.ParallelDigest != info.SequentialDigest {
			fail("parallel replay digest %s != sequential %s",
				info.ParallelDigest, info.SequentialDigest)
		}
		if rep.ElapsedNs > 0 {
			rep.Speedup = float64(rep.SequentialNs) / float64(rep.ElapsedNs)
		}
	}

	emit(&rep, *jsonOut)
}

// emit renders the report (an array, matching janus-bench -json, so the
// same tooling folds both).
func emit(rep *bench.RunReport, jsonOut bool) {
	if jsonOut {
		check(bench.WriteJSON(os.Stdout, []bench.RunReport{*rep}))
		return
	}
	in := rep.Replay
	if rep.Error != "" {
		fmt.Printf("%s: REPLAY FAILED: %s\n", in.Trace, rep.Error)
		return
	}
	fmt.Printf("%s: workload=%s commits=%d digest=%s (%s)\n",
		in.Trace, rep.Workload, in.Commits, in.SequentialDigest, in.DigestKind)
	fmt.Printf("  sequential: %v, digest verified\n", time.Duration(rep.SequentialNs))
	if in.RelaxedReads > 0 {
		fmt.Printf("  verify-ops: %d reads of RAW-relaxed locations not checked\n", in.RelaxedReads)
	}
	if in.ParallelDigest != "" {
		fmt.Printf("  parallel: threads=%d %v commits=%d retries=%d, digest verified\n",
			rep.Threads, time.Duration(rep.ElapsedNs), rep.Run.Commits, rep.Run.Retries)
	}
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "janus-replay: "+format+"\n", args...)
	os.Exit(1)
}
