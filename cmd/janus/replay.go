package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/conflict"
	"repro/internal/fsio"
	"repro/internal/rec"
	"repro/internal/state"
	"repro/internal/workloads"
)

// runReplay deterministically re-executes a recorded op trace (`janus
// bench -record`, or a flight-recorder dump) and verifies the outcome
// against the trace's own oracle digest, in up to two stages:
//
//  1. Sequential oracle replay: the recorded transaction logs are applied
//     over the trace's initial-state snapshot in commit order. By
//     serializability this must reproduce the recorded final state
//     exactly, so a digest mismatch means a corrupted or internally
//     inconsistent trace, or a runtime bug.
//  2. Parallel replay (skipped with -seq-only): the same transactions run
//     again through the real stm runtime with write-set detection and the
//     recorded commit order pinned.
//
// The report is a bench.RunReport (-json), so `janus benchjson -reports`
// folds replayed captures into a trajectory. The command fails on any
// digest mismatch, on a lossy or truncated trace and on a decode failure.
func runReplay(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("replay", stderr)
	var (
		threads   = fs.Int("threads", 0, "worker count for the parallel replay (0 = the recorded count)")
		seqOnly   = fs.Bool("seq-only", false, "run only the sequential oracle replay, skip the parallel stm re-execution")
		verifyOps = fs.Bool("verify-ops", false, "additionally verify every op's result against the recorded observed value during sequential replay (reads of locations the recorded workload relaxes for RAW are skipped and counted)")
		jsonOut   = jsonFlag(fs)
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return usageError{errors.New("want one trace file: janus replay [flags] <trace file>")}
	}
	path := fs.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	trace, err := rec.ReadTrace(f)
	f.Close()
	if err != nil {
		var terr *fsio.FrameError
		if errors.As(err, &terr) {
			return fmt.Errorf("%s: rejected (%s): %w", path, terr.Reason, err)
		}
		return fmt.Errorf("%s: %w", path, err)
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
	// fail reports the failed replay and fails the command with it.
	fail := func(format string, args ...any) error {
		rep.Error = fmt.Sprintf(format, args...)
		info.Match = false
		if err := emitReplay(stdout, &rep, *jsonOut); err != nil {
			return err
		}
		return errors.New(rep.Error)
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
		return fail("sequential replay: %v", err)
	}
	rep.SequentialNs = int64(time.Since(seqStart))
	info.SequentialDigest = rec.FormatDigest(rec.Digest(seqState))
	if trace.DigestKind != rec.DigestNone && info.SequentialDigest != info.RecordedDigest {
		return fail("sequential replay digest %s != recorded %s (%s)",
			info.SequentialDigest, info.RecordedDigest, trace.DigestKind)
	}

	if !*seqOnly {
		parStart := time.Now()
		parState, stats, err := trace.Replay(*threads)
		if err != nil {
			return fail("parallel replay: %v", err)
		}
		rep.ElapsedNs = int64(time.Since(parStart))
		rep.Run = stats
		info.ParallelDigest = rec.FormatDigest(rec.Digest(parState))
		if info.ParallelDigest != info.SequentialDigest {
			return fail("parallel replay digest %s != sequential %s",
				info.ParallelDigest, info.SequentialDigest)
		}
		if rep.ElapsedNs > 0 {
			rep.Speedup = float64(rep.SequentialNs) / float64(rep.ElapsedNs)
		}
	}
	return emitReplay(stdout, &rep, *jsonOut)
}

// emitReplay renders the report: as JSON, an array like `janus bench
// -json` writes, so the same tooling folds both.
func emitReplay(w io.Writer, rep *bench.RunReport, jsonOut bool) error {
	if jsonOut {
		return bench.WriteJSON(w, []bench.RunReport{*rep})
	}
	in := rep.Replay
	if rep.Error != "" {
		fmt.Fprintf(w, "%s: REPLAY FAILED: %s\n", in.Trace, rep.Error)
		return nil
	}
	fmt.Fprintf(w, "%s: workload=%s commits=%d digest=%s (%s)\n",
		in.Trace, rep.Workload, in.Commits, in.SequentialDigest, in.DigestKind)
	fmt.Fprintf(w, "  sequential: %v, digest verified\n", time.Duration(rep.SequentialNs))
	if in.RelaxedReads > 0 {
		fmt.Fprintf(w, "  verify-ops: %d reads of RAW-relaxed locations not checked\n", in.RelaxedReads)
	}
	if in.ParallelDigest != "" {
		fmt.Fprintf(w, "  parallel: threads=%d %v commits=%d retries=%d, digest verified\n",
			rep.Threads, time.Duration(rep.ElapsedNs), rep.Run.Commits, rep.Run.Retries)
	}
	return nil
}
