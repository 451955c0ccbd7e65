package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/rec"
	"repro/internal/state"
	"repro/internal/stm"
	"repro/internal/workloads"
)

// failingWorkload is a synthetic benchmark whose training runs succeed but
// whose production task set (prodSeed) panics partway through, exercising
// the failure path of ProfileRun.
func failingWorkload() *workloads.Workload {
	return &workloads.Workload{
		Name: "synthetic-failure",
		Desc: "panics on the production input only",
		NewState: func() *state.State {
			st := state.New()
			st.Set("work", state.Int(0))
			return st
		},
		Tasks: func(size workloads.Size, seed int64) []adt.Task {
			add := func(n int64) adt.Task {
				return func(ex adt.Executor) error {
					return adt.Counter{L: "work"}.Add(ex, n)
				}
			}
			tasks := []adt.Task{add(1), add(2), add(3)}
			if seed == prodSeed {
				tasks = append(tasks, func(adt.Executor) error {
					panic("synthetic production fault")
				})
			}
			return tasks
		},
	}
}

func TestProfileRunFailureReport(t *testing.T) {
	w := failingWorkload()
	rep, err := ProfileRun(w, Seq, 2, Opts{Size: workloads.Small}, nil)
	if err == nil {
		t.Fatal("ProfileRun on a panicking workload returned nil error")
	}
	var pe *stm.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to *stm.PanicError", err)
	}
	if rep.Error == "" || !strings.Contains(rep.Error, "panicked") {
		t.Fatalf("report Error = %q, want the panic surfaced", rep.Error)
	}
	if !strings.Contains(err.Error(), rep.Error) && rep.Error != err.Error() {
		t.Fatalf("report Error %q inconsistent with err %v", rep.Error, err)
	}
	if rep.Workload != "synthetic-failure" || rep.Tasks != 4 {
		t.Fatalf("partial report lost identity: %+v", rep)
	}
	// The failure record must survive the JSON round trip consumers see.
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []RunReport{rep}); err != nil {
		t.Fatal(err)
	}
	var back []RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Error != rep.Error {
		t.Fatalf("error field lost in JSON round trip: %+v", back)
	}
}

// TestFailedRecordedRunReplaysToFooterDigest: a recorded run whose last
// task fails after the others committed still closes its trace with the
// digest of what it committed, and the trace replays to that digest.
func TestFailedRecordedRunReplaysToFooterDigest(t *testing.T) {
	errLate := errors.New("synthetic late fault")
	var lateRuns atomic.Int32
	w := &workloads.Workload{
		Name: "synthetic-late-failure",
		Desc: "fails its last production task in the parallel run only",
		NewState: func() *state.State {
			st := state.New()
			st.Set("work", state.Int(0))
			return st
		},
		Tasks: func(size workloads.Size, seed int64) []adt.Task {
			tasks := make([]adt.Task, 0, 4)
			for n := int64(1); n <= 3; n++ {
				tasks = append(tasks, func(ex adt.Executor) error {
					return adt.Counter{L: "work"}.Add(ex, n)
				})
			}
			if seed == prodSeed {
				// ProfileRun times a sequential run of the same tasks
				// first: that run is the task's first, and succeeds.
				tasks = append(tasks, func(adt.Executor) error {
					if lateRuns.Add(1) > 1 {
						return errLate
					}
					return nil
				})
			}
			return tasks
		},
	}
	path := filepath.Join(t.TempDir(), "late.trace")
	// One worker commits the first three tasks before the fourth runs.
	if _, err := ProfileRun(w, Seq, 1, Opts{Size: workloads.Small, RecordPath: path}, nil); !errors.Is(err, errLate) {
		t.Fatalf("ProfileRun: %v, want the late fault", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace, err := rec.ReadTrace(f)
	if err != nil {
		t.Fatalf("ReadTrace on a failed run's artifact: %v", err)
	}
	if trace.DigestKind != rec.DigestFinal || len(trace.Txns) != 3 {
		t.Fatalf("failed run's trace: digest %s, %d txns; want final, 3", trace.DigestKind, len(trace.Txns))
	}
	st, err := trace.ReplaySequential()
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Digest(st); got != trace.Digest {
		t.Errorf("replay digest %016x != footer digest %016x", got, trace.Digest)
	}
}

func TestProfileRunChaosReport(t *testing.T) {
	w, err := workloads.ByName("jfilesync")
	if err != nil {
		t.Fatal(err)
	}
	opts := Opts{
		Size:        workloads.Small,
		ChaosSeed:   42,
		BackoffBase: 20 * time.Microsecond,
	}
	rep, err := ProfileRun(w, Seq, 2, opts, nil)
	if err != nil {
		t.Fatalf("chaos-enabled run failed: %v", err)
	}
	if rep.Error != "" {
		t.Fatalf("successful run carries Error %q", rep.Error)
	}
	if rep.ChaosSeed != 42 || rep.Chaos == nil {
		t.Fatalf("chaos accounting missing: seed=%d stats=%v", rep.ChaosSeed, rep.Chaos)
	}
	if rep.BackoffBaseNs != int64(20*time.Microsecond) {
		t.Fatalf("backoff base not echoed: %+v", rep)
	}
	if rep.Run.Commits != int64(rep.Tasks) {
		t.Fatalf("commits %d != tasks %d under chaos", rep.Run.Commits, rep.Tasks)
	}
}

// TestStatsSchemaRoundTrip pins the RunReport JSON schema for trajectory
// consumers: every stm.Stats field must carry a json tag (a new untagged
// field would silently serialize under its Go name and break diffing),
// and the contention/validation counters must appear under their
// documented keys.
func TestStatsSchemaRoundTrip(t *testing.T) {
	rt := reflect.TypeOf(stm.Stats{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if f.Tag.Get("json") == "" {
			t.Errorf("stm.Stats.%s has no json tag", f.Name)
		}
	}
	rep := RunReport{
		Workload: "schema", Detector: "seq", Threads: 2,
		Run: stm.Stats{
			Tasks: 1, Commits: 2, Retries: 3, Conflicts: 4,
			BackoffWaits: 5, Escalations: 6, Reclaimed: 7,
			ValidationsSkipped: 8, LocsInstalled: 11, LocsReplayed: 12,
		},
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{
		"backoff_waits":       `"backoff_waits":5`,
		"escalations":         `"escalations":6`,
		"reclaimed":           `"reclaimed":7`,
		"validations_skipped": `"validations_skipped":8`,
		"locs_installed":      `"locs_installed":11`,
		"locs_replayed":       `"locs_replayed":12`,
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("report JSON missing %s: %s", key, out)
		}
	}
	var back RunReport
	if err := json.Unmarshal(out, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Run, rep.Run) {
		t.Errorf("stats did not round-trip: %+v != %+v", back.Run, rep.Run)
	}
}

// TestProfileRunHeavy drives the heavy-transaction workload through
// ProfileRun: every task must commit, the shape knobs must echo in the
// report, and both must survive the JSON round trip trajectory consumers
// diff.
func TestProfileRunHeavy(t *testing.T) {
	opts := Opts{Size: workloads.Small, OpsPerTxn: 96, TxnSkew: 1}
	w, err := opts.Resolve(workloads.HeavyName)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ProfileRun(w, Seq, 2, opts, nil)
	if err != nil {
		t.Fatalf("heavy run failed: %v", err)
	}
	if rep.Run.Commits != int64(rep.Tasks) {
		t.Fatalf("commits %d != tasks %d", rep.Run.Commits, rep.Tasks)
	}
	if rep.OpsPerTxn != 96 || rep.TxnSkew != 1 {
		t.Fatalf("knobs not echoed: %+v", rep)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []RunReport{rep}); err != nil {
		t.Fatal(err)
	}
	var back []RunReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Run.Commits != rep.Run.Commits || back[0].OpsPerTxn != 96 {
		t.Fatalf("heavy report lost in round trip: %+v", back)
	}
}

// TestProfileRunRecordRoundTrip is the end-to-end acceptance check for
// stream capture: a recorded ProfileRun produces a trace file that decodes,
// carries a final digest, and replays sequentially to that digest.
func TestProfileRunRecordRoundTrip(t *testing.T) {
	w, err := workloads.ByName("jfilesync")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	opts := Opts{Size: workloads.Small, RecordPath: path}
	rep, err := ProfileRun(w, Seq, 2, opts, nil)
	if err != nil {
		t.Fatalf("recorded run failed: %v", err)
	}
	if rep.RecordPath != path || rep.Record == nil {
		t.Fatalf("record accounting missing: path=%q record=%v", rep.RecordPath, rep.Record)
	}
	if rep.Record.Commits != rep.Run.Commits {
		t.Errorf("recorder saw %d commits, run committed %d", rep.Record.Commits, rep.Run.Commits)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	trace, err := rec.ReadTrace(f)
	if err != nil {
		t.Fatalf("ReadTrace on ProfileRun artifact: %v", err)
	}
	if trace.Meta.Workload != w.Name || trace.Meta.Tasks != rep.Tasks {
		t.Errorf("trace meta %+v drifted from report", trace.Meta)
	}
	if trace.DigestKind != rec.DigestFinal {
		t.Fatalf("digest kind = %s, want final", trace.DigestKind)
	}
	st, _, err := trace.VerifySequential(nil)
	if err != nil {
		t.Fatalf("VerifySequential: %v", err)
	}
	if got := rec.Digest(st); got != trace.Digest {
		t.Errorf("replay digest %016x != recorded %016x", got, trace.Digest)
	}
}

// TestVerifyOpsSkipsRelaxedReads: a recorded jgrapht1 run verifies op by
// op once reads of the locations the workload relaxes for RAW (maxColor,
// usedColors) are left unchecked — a parallel run may read them stale by
// design, so the commit-order replay need not observe what the run did.
// An observation tampered on such a location is skipped and counted; one
// on any other location still fails the check.
func TestVerifyOpsSkipsRelaxedReads(t *testing.T) {
	w, err := workloads.ByName("jgrapht1")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jg1.trace")
	if _, err := ProfileRun(w, Seq, 2, Opts{Size: workloads.Small, RecordPath: path}, nil); err != nil {
		t.Fatalf("recorded run failed: %v", err)
	}
	read := func() *rec.Trace {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr, err := rec.ReadTrace(f)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	tr := read()
	st, skipped, err := tr.VerifySequential(w.Relaxations)
	if err != nil {
		t.Fatalf("verify-ops replay of a jgrapht1 recording: %v", err)
	}
	if got := rec.Digest(st); got != tr.Digest {
		t.Errorf("replay digest %016x != recorded %016x", got, tr.Digest)
	}
	if skipped == 0 {
		t.Fatal("no read of a RAW-relaxed location was skipped; every task reads maxColor")
	}
	// tamper replaces the first recorded observation of a read for which
	// relaxed(loc) holds.
	tamper := func(tr *rec.Trace, relaxed bool) {
		for _, txn := range tr.Txns {
			for j, op := range txn.Ops {
				if op.IsRead() && w.Relaxations.TolerateRAW(op.L) == relaxed {
					txn.Observed[j] = state.Int(-1)
					return
				}
			}
		}
		t.Fatalf("no read with relaxed=%v in the trace", relaxed)
	}
	tr = read()
	tamper(tr, true)
	if _, n, err := tr.VerifySequential(w.Relaxations); err != nil || n != skipped {
		t.Fatalf("a tampered relaxed read: skipped %d (err %v), want it skipped among %d", n, err, skipped)
	}
	if _, _, err := tr.VerifySequential(nil); err == nil {
		t.Fatal("with no relaxations the tampered relaxed read passed the check")
	}
	tr = read()
	tamper(tr, false)
	if _, _, err := tr.VerifySequential(w.Relaxations); err == nil {
		t.Fatal("a tampered read of a location jgrapht1 does not relax passed the check")
	}
}
