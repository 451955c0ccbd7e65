package stm

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/obs"
	"repro/internal/oplog"
	"repro/internal/state"
)

// mixedTasks is the demotion workloads' task mix: commutative counters,
// identity pairs, and order-observable appends, so the history holds
// entries of every shape the compressor must round-trip.
func mixedTasks(n int) []adt.Task {
	var tasks []adt.Task
	for i := 1; i <= n; i++ {
		switch i % 3 {
		case 0:
			tasks = append(tasks, addTask(int64(i)))
		case 1:
			tasks = append(tasks, identityTask(int64(i)))
		default:
			tasks = append(tasks, appendTask(int64(i)))
		}
	}
	return tasks
}

// TestHistoryCompressMatchesOracle runs the contended mixed workload
// across the ordered/unordered × copy/persistent matrix with history
// compression on and a tiny recent window, so most validations screen
// (and on overlap decode) compressed entries. The outcome must still
// match the sequential oracle, and the run must actually have demoted.
func TestHistoryCompressMatchesOracle(t *testing.T) {
	tasks := mixedTasks(24)
	want, err := RunSequential(initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	wantWork, _ := want.Get("work")
	wantLog, _ := want.Get("log")
	for _, ordered := range []bool{false, true} {
		cfg := Config{
			Threads: 4, Ordered: ordered,
			HistoryCompress: true, CompressAfter: 2,
		}
		got, stats, err := Run(cfg, initialState(), tasks)
		if err != nil {
			t.Fatalf("ordered=%v: %v", ordered, err)
		}
		if stats.Demotions == 0 {
			t.Fatalf("ordered=%v: no demotions with CompressAfter=2 over %d commits",
				ordered, stats.Commits)
		}
		if stats.HistBytes <= 0 {
			t.Fatalf("ordered=%v: HistBytes = %d with %d live demoted entries",
				ordered, stats.HistBytes, stats.Demotions)
		}
		if ordered {
			if !got.Equal(want) {
				t.Fatalf("ordered: %s != sequential %s", got, want)
			}
			continue
		}
		if v, _ := got.Get("work"); !v.EqualValue(wantWork) {
			t.Fatalf("unordered: work = %v, want %v", v, wantWork)
		}
		if v, _ := got.Get("log"); len(v.(state.IntList)) != len(wantLog.(state.IntList)) {
			t.Fatalf("unordered: log length %d, want %d",
				len(v.(state.IntList)), len(wantLog.(state.IntList)))
		}
	}
}

// TestHistoryCompressWindowInvariant pins demoteLocked's inductive
// invariant: after a run, every history entry older than the
// CompressAfter window is compressed, every entry inside it is still
// full, and the HistBytes gauge equals the live compressed footprint.
func TestHistoryCompressWindowInvariant(t *testing.T) {
	const keep = 3
	r := New(Config{Threads: 4, HistoryCompress: true, CompressAfter: keep}, initialState())
	_, stats, err := r.run(mixedTasks(20))
	if err != nil {
		t.Fatal(err)
	}
	r.histMu.Lock()
	defer r.histMu.Unlock()
	if len(r.history) != 20 {
		t.Fatalf("history length %d, want 20", len(r.history))
	}
	var liveBytes int64
	for i := range r.history {
		compressed := r.history[i].prep.Compressed()
		if want := i < len(r.history)-keep; compressed != want {
			t.Fatalf("entry %d of %d: compressed = %v, want %v (window %d)",
				i, len(r.history), compressed, want, keep)
		}
		liveBytes += int64(r.history[i].prep.CompressedBytes())
	}
	if got := int64(len(r.history) - keep); stats.Demotions != got {
		t.Fatalf("Demotions = %d, want %d", stats.Demotions, got)
	}
	if stats.HistBytes != liveBytes {
		t.Fatalf("HistBytes = %d, live compressed footprint = %d", stats.HistBytes, liveBytes)
	}
}

// TestReclaimSubtractsCompressedBytes pins the gauge's other edge:
// reclaiming a demoted entry returns its bytes. Reclamation drops the
// two stale compressed entries and must subtract exactly their sizes,
// leaving the gauge at the one surviving compressed entry.
func TestReclaimSubtractsCompressedBytes(t *testing.T) {
	r := New(Config{ReclaimLogs: true, HistoryCompress: true}, initialState())
	mk := func(task int) *conflict.Prepared {
		return conflict.Prepare(oplog.Log{&oplog.Event{
			Op: adt.NumAddOp{L: "work", Delta: int64(task)}, Task: task,
			Acc: []oplog.Access{{P: oplog.PLoc("work"), Write: true}},
		}}).Compress()
	}
	var total int64
	for ct := int64(2); ct <= 4; ct++ {
		p := mk(int(ct))
		total += int64(p.CompressedBytes())
		r.history = append(r.history, histEntry{commitTime: ct, task: int(ct), prep: p})
	}
	atomic.StoreInt64(&r.stats.HistBytes, total)
	r.clock.Store(5)
	r.published.Store(5)
	r.begins[1] = 3 // pins entries with commit time > 3: only ct=4 survives

	r.histMu.Lock()
	r.reclaimLocked()
	r.histMu.Unlock()

	if len(r.history) != 1 {
		t.Fatalf("kept %d entries, want 1", len(r.history))
	}
	want := int64(r.history[0].prep.CompressedBytes())
	if got := atomic.LoadInt64(&r.stats.HistBytes); got != want {
		t.Fatalf("HistBytes = %d after reclaiming two compressed entries, want %d", got, want)
	}
}

// TestHistoryDemoteEventEmitted checks the observability contract: one
// history.demote instant per demotion, carrying the entry's task id and
// its retained byte count.
func TestHistoryDemoteEventEmitted(t *testing.T) {
	tr := obs.NewTrace(4096)
	cfg := Config{Threads: 2, HistoryCompress: true, CompressAfter: 1, Tracer: tr}
	_, stats, err := Run(cfg, initialState(), mixedTasks(12))
	if err != nil {
		t.Fatal(err)
	}
	var demotes int64
	for _, e := range tr.Events() {
		if e.Type != obs.EvHistoryDemote {
			continue
		}
		demotes++
		if e.Loc == "" {
			t.Fatalf("history.demote event missing task attribution: %+v", e)
		}
		if !strings.HasSuffix(e.Detail, "B") {
			t.Fatalf("history.demote Detail = %q, want a byte count", e.Detail)
		}
	}
	if demotes != stats.Demotions {
		t.Fatalf("trace holds %d history.demote events, stats report %d demotions",
			demotes, stats.Demotions)
	}
	if demotes == 0 {
		t.Fatal("no demotions recorded")
	}
}

// TestSerialEscalationDemotes drives every commit through the
// irrevocable-serial path (an always-conflicting detector with
// SerializeAfter=1) and checks that attemptSerial's publications demote
// like striped commits do.
func TestSerialEscalationDemotes(t *testing.T) {
	cfg := Config{
		Threads: 2, Detector: &alwaysConflict{}, SerializeAfter: 1,
		HistoryCompress: true, CompressAfter: 1,
	}
	tasks := []adt.Task{addTask(1), addTask(2), addTask(3), addTask(4), addTask(5)}
	got, stats, err := Run(cfg, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := got.Get("work"); !v.EqualValue(state.Int(15)) {
		t.Fatalf("work = %v, want 15", v)
	}
	if stats.Escalations == 0 {
		t.Fatal("no commit escalated to serial mode; the test exercises nothing")
	}
	if stats.Demotions == 0 {
		t.Fatal("serial-path publications never demoted")
	}
}
