package stm

import (
	"errors"
	"testing"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/workloads"
)

// workTask is addTask with enough local work for parallelism to pay.
func workTask(n int64) adt.Task {
	return func(ex adt.Executor) error {
		if err := (adt.Counter{L: "work"}).Add(ex, n); err != nil {
			return err
		}
		adt.LocalWork(ex, 10000)
		return nil
	}
}

func workIdentityTask(n int64) adt.Task {
	return func(ex adt.Executor) error {
		c := adt.Counter{L: "work"}
		if err := c.Add(ex, n); err != nil {
			return err
		}
		adt.LocalWork(ex, 10000)
		return c.Sub(ex, n)
	}
}

func simulate(t *testing.T, cfg SimConfig, tasks []adt.Task) (*state.State, SimStats) {
	t.Helper()
	final, stats, err := Simulate(cfg, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	return final, stats
}

func TestDeterministic(t *testing.T) {
	tasks := []adt.Task{workIdentityTask(1), workIdentityTask(2), workIdentityTask(3), workTask(4)}
	_, a := simulate(t, SimConfig{Threads: 4, RecordTimeline: true}, tasks)
	_, b := simulate(t, SimConfig{Threads: 4, RecordTimeline: true}, tasks)
	if a.Makespan != b.Makespan || a.Retries != b.Retries || a.Commits != b.Commits || a.Speedup != b.Speedup {
		t.Fatalf("simulated runs differ:\n%+v\n%+v", a, b)
	}
	if len(a.Timeline) != len(b.Timeline) {
		t.Fatalf("timelines differ in length")
	}
	for i := range a.Timeline {
		if a.Timeline[i] != b.Timeline[i] {
			t.Fatalf("timeline entry %d differs: %+v vs %+v", i, a.Timeline[i], b.Timeline[i])
		}
	}
}

func TestFinalStateMatchesSequential(t *testing.T) {
	tasks := []adt.Task{workTask(1), workTask(2), workTask(3), workTask(4), workTask(5)}
	want, err := RunSequential(initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []int{1, 2, 4, 8} {
		final, stats, err := Simulate(SimConfig{Threads: th}, initialState(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if !final.Equal(want) {
			t.Fatalf("threads=%d: %s != sequential %s", th, final, want)
		}
		if stats.Commits != 5 {
			t.Fatalf("commits = %d", stats.Commits)
		}
	}
}

func TestOrderedCommitsFollowTaskOrder(t *testing.T) {
	tasks := []adt.Task{appendTask(1), appendTask(2), appendTask(3), appendTask(4)}
	final, _ := simulate(t, SimConfig{Threads: 4, Ordered: true}, tasks)
	v, _ := final.Get("log")
	lst := *v.(*state.IntList)
	for i, x := range lst {
		if x != int64(i+1) {
			t.Fatalf("ordered log = %v", lst)
		}
	}
}

func TestSimulatedSingleThreadNoRetries(t *testing.T) {
	_, stats := simulate(t, SimConfig{Threads: 1}, []adt.Task{workTask(1), workTask(2)})
	if stats.Retries != 0 {
		t.Fatalf("retries = %d at 1 thread", stats.Retries)
	}
	if stats.Speedup >= 1 {
		t.Fatalf("1-thread transactional run cannot beat the sequential baseline (speedup=%v)", stats.Speedup)
	}
}

func TestWriteSetRetriesUnderConcurrency(t *testing.T) {
	var tasks []adt.Task
	for i := 1; i <= 16; i++ {
		tasks = append(tasks, workTask(int64(i)))
	}
	_, stats := simulate(t, SimConfig{Threads: 4}, tasks)
	if stats.Retries == 0 {
		t.Fatalf("overlapping write-set txns must retry")
	}
	if stats.Commits != 16 {
		t.Fatalf("commits = %d", stats.Commits)
	}
	if got := stats.RetryRatio(); got <= 0 {
		t.Fatalf("RetryRatio = %v", got)
	}
}

func TestSequenceDetectorBeatsWriteSetOnIdentity(t *testing.T) {
	var tasks []adt.Task
	for i := 1; i <= 16; i++ {
		tasks = append(tasks, workIdentityTask(int64(i)))
	}
	engine := core.NewEngine(core.Options{})
	if err := engine.Train(initialState(), tasks[:4]); err != nil {
		t.Fatal(err)
	}
	_, seqStats, err := Simulate(SimConfig{Threads: 8, Detector: engine.Detector()}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	_, wsStats, err := Simulate(SimConfig{Threads: 8, Detector: conflict.NewWriteSet()}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if seqStats.Retries != 0 {
		t.Fatalf("sequence detection must admit identity tasks: %d retries", seqStats.Retries)
	}
	if wsStats.Retries == 0 {
		t.Fatalf("write-set must abort identity tasks under concurrency")
	}
	if seqStats.Speedup <= wsStats.Speedup {
		t.Fatalf("sequence speedup %v must beat write-set %v", seqStats.Speedup, wsStats.Speedup)
	}
	if seqStats.Speedup <= 1 {
		t.Fatalf("identity workload at 8 threads must beat sequential, got %v", seqStats.Speedup)
	}
}

func TestSpeedupScalesWithThreads(t *testing.T) {
	var tasks []adt.Task
	for i := 1; i <= 32; i++ {
		tasks = append(tasks, workIdentityTask(int64(i)))
	}
	engine := core.NewEngine(core.Options{})
	if err := engine.Train(initialState(), tasks[:4]); err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, th := range []int{1, 2, 4} {
		_, stats, err := Simulate(SimConfig{Threads: th, Detector: engine.Detector()}, initialState(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Speedup <= prev {
			t.Fatalf("speedup not increasing: %v after %v at %d threads", stats.Speedup, prev, th)
		}
		prev = stats.Speedup
	}
}

func TestMachineEffective(t *testing.T) {
	m := DefaultMachine()
	cases := []struct{ threads, want int }{
		{1, 1}, {2, 2}, {4, 4}, {5, 4}, {6, 5}, {8, 5}, {16, 5},
	}
	for _, c := range cases {
		if got := m.effective(c.threads); got != c.want {
			t.Errorf("effective(%d) = %d, want %d", c.threads, got, c.want)
		}
	}
	unlimited := Machine{}
	if got := unlimited.effective(8); got != 8 {
		t.Errorf("zero machine must not cap: %d", got)
	}
}

func TestSMTCapacityCapsSpeedup(t *testing.T) {
	var tasks []adt.Task
	for i := 1; i <= 64; i++ {
		tasks = append(tasks, workIdentityTask(int64(i)))
	}
	engine := core.NewEngine(core.Options{})
	if err := engine.Train(initialState(), tasks[:4]); err != nil {
		t.Fatal(err)
	}
	_, eight, err := Simulate(SimConfig{Threads: 8, Detector: engine.Detector()}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if eight.Speedup > 5.01 {
		t.Fatalf("8 threads on the 4-core SMT machine cannot exceed 5x, got %v", eight.Speedup)
	}
	uncapped := Machine{Cores: 64}
	_, wide, err := Simulate(SimConfig{Threads: 8, Detector: engine.Detector(), Machine: &uncapped}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Speedup <= eight.Speedup {
		t.Fatalf("uncapped machine must beat the SMT-capped one: %v vs %v", wide.Speedup, eight.Speedup)
	}
}

func TestSimulatedTaskErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	bad := func(adt.Executor) error { return boom }
	_, _, err := Simulate(SimConfig{Threads: 2}, initialState(), []adt.Task{workTask(1), bad})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestSimulatedMaxRetriesGuard(t *testing.T) {
	_, _, err := Simulate(SimConfig{Threads: 2, Detector: &alwaysConflict{}, MaxRetries: 3},
		initialState(), []adt.Task{workTask(1), workTask(2)})
	var rle *RetryLimitError
	if !errors.As(err, &rle) || rle.Retries != 3 {
		t.Fatalf("err = %v, want a RetryLimitError at 3 retries", err)
	}
}

func TestInvalidThreads(t *testing.T) {
	if _, _, err := Simulate(SimConfig{}, initialState(), nil); err == nil {
		t.Fatalf("zero threads must error")
	}
}

func TestCostOverride(t *testing.T) {
	tasks := []adt.Task{workTask(1)}
	cheap := DefaultCost()
	cheap.Op = 1
	cheap.CommitBase = 1
	cheap.ReplayWritePerOp = 1
	cheap.Begin = 1
	cheap.FaultPerLoc = 1
	_, cheapStats, err := Simulate(SimConfig{Threads: 1, Cost: &cheap}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	_, defStats, err := Simulate(SimConfig{Threads: 1}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if cheapStats.Makespan >= defStats.Makespan {
		t.Fatalf("cheaper costs must shrink the makespan: %v vs %v", cheapStats.Makespan, defStats.Makespan)
	}
}

func TestRetryRatioZeroTasks(t *testing.T) {
	if (SimStats{}).RetryRatio() != 0 {
		t.Errorf("zero tasks ratio must be 0")
	}
}

func TestTimelineRecords(t *testing.T) {
	tasks := []adt.Task{workTask(1), workTask(2), workTask(3), workTask(4)}
	_, stats, err := Simulate(SimConfig{Threads: 2, RecordTimeline: true}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Timeline) != len(tasks) {
		t.Fatalf("timeline = %d entries, want %d", len(stats.Timeline), len(tasks))
	}
	prev := -1.0
	seenTask := map[int]bool{}
	totalAttempts := int64(0)
	for _, tt := range stats.Timeline {
		if tt.Commit < prev {
			t.Fatalf("timeline not in commit order: %+v", stats.Timeline)
		}
		prev = tt.Commit
		if tt.Start >= tt.Commit {
			t.Fatalf("task %d starts after its commit: %+v", tt.Task, tt)
		}
		if tt.Attempts < 1 {
			t.Fatalf("task %d has %d attempts", tt.Task, tt.Attempts)
		}
		if seenTask[tt.Task] {
			t.Fatalf("task %d committed twice", tt.Task)
		}
		seenTask[tt.Task] = true
		totalAttempts += int64(tt.Attempts)
	}
	if totalAttempts != stats.Commits+stats.Retries {
		t.Fatalf("attempts %d != commits %d + retries %d", totalAttempts, stats.Commits, stats.Retries)
	}
	// Off by default.
	_, noTL, err := Simulate(SimConfig{Threads: 2}, initialState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(noTL.Timeline) != 0 {
		t.Fatalf("timeline recorded without the flag")
	}
}

// TestSimulatedWorkloadsSerializable is Theorem 4.1 on the five ported
// loops under the simulated schedule: with the trained detector and the
// workload's relaxations, the final state equals a sequential run of the
// tasks in the order the timeline says they committed, on every location
// the relaxation specification does not declare immaterial.
func TestSimulatedWorkloadsSerializable(t *testing.T) {
	for _, w := range workloads.All() {
		tasks := w.Tasks(workloads.Small, 5)
		engine := core.NewEngine(core.Options{Relax: w.Relaxations})
		if err := engine.TrainMany(w.NewState(), w.TrainingPayloads()[:2]); err != nil {
			t.Fatal(err)
		}
		final, stats, err := Simulate(SimConfig{
			Threads: 8, Ordered: w.Ordered, Detector: engine.Detector(), RecordTimeline: true,
		}, w.NewState(), tasks)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		order := make([]adt.Task, len(tasks))
		for i, tt := range stats.Timeline {
			order[i] = tasks[tt.Task-1]
		}
		want, err := RunSequential(w.NewState(), order)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range want.Locs() {
			if w.Relaxations != nil && w.Relaxations.Any(loc) {
				continue
			}
			wv, _ := want.Get(loc)
			if gv, ok := final.Get(loc); !ok || !gv.EqualValue(wv) {
				t.Errorf("%s: %s = %v after the simulated run, %v sequentially in commit order", w.Name, loc, gv, wv)
			}
		}
	}
}
