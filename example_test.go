package janus_test

import (
	"fmt"
	"log"

	"repro"
)

// ExampleRunner demonstrates the full train-then-run flow on the paper's
// Figure 1 program: tasks that accumulate pending work into a shared
// counter and restore it on success act as the identity, so sequence-based
// detection runs them in parallel without aborts.
func ExampleRunner() {
	st := janus.NewState()
	work := janus.InitCounter(st, "work", 0)

	task := func(weight int64, success bool) janus.Task {
		return func(ex janus.Executor) error {
			if err := work.Add(ex, weight); err != nil {
				return err
			}
			if success {
				return work.Sub(ex, weight)
			}
			return nil
		}
	}
	tasks := []janus.Task{
		task(2, true), task(3, true), task(5, false), task(7, true),
	}

	r := janus.New(janus.Config{Threads: 4})
	if err := r.Train(st, tasks[:2]); err != nil {
		log.Fatal(err)
	}
	final, stats, err := r.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}
	pending, _ := final.Get("work")
	fmt.Printf("pending work: %v\n", pending)
	fmt.Printf("commits: %d\n", stats.Run.Commits)
	// Output:
	// pending work: 5
	// commits: 4
}

// ExampleSequential runs the unsynchronized baseline.
func ExampleSequential() {
	st := janus.NewState()
	counter := janus.InitCounter(st, "n", 10)
	final, err := janus.Sequential(st, []janus.Task{
		func(ex janus.Executor) error { return counter.Add(ex, 5) },
		func(ex janus.Executor) error { return counter.Sub(ex, 3) },
	})
	if err != nil {
		log.Fatal(err)
	}
	v, _ := final.Get("n")
	fmt.Println(v)
	// Output: 12
}

// ExampleRunner_RunInOrder shows ordered commits: the final state matches
// the task order exactly, even for non-commutative operations.
func ExampleRunner_RunInOrder() {
	st := janus.NewState()
	stack := janus.InitStack(st, "events")
	var tasks []janus.Task
	for i := int64(1); i <= 4; i++ {
		v := i
		tasks = append(tasks, func(ex janus.Executor) error {
			return stack.Push(ex, v)
		})
	}
	r := janus.New(janus.Config{Threads: 4, Detection: janus.DetectWriteSet})
	final, _, err := r.RunInOrder(st, tasks)
	if err != nil {
		log.Fatal(err)
	}
	v, _ := final.Get("events")
	fmt.Println(v)
	// Output: [1 2 3 4]
}

// ExampleNewRelaxations declares §5.3 consistency relaxations: scratch
// fields whose write-after-write conflicts are tolerable.
func ExampleNewRelaxations() {
	st := janus.NewState()
	scratch := janus.InitStrVar(st, "ctx.scratch", "")
	var tasks []janus.Task
	for i := 0; i < 4; i++ {
		name := janus.Value(janus.Str(fmt.Sprintf("file%d", i)))
		tasks = append(tasks, func(ex janus.Executor) error {
			if err := scratch.Store(ex, name); err != nil {
				return err
			}
			_, err := scratch.Load(ex) // reads its own write
			return err
		})
	}
	r := janus.New(janus.Config{
		Threads: 4,
		Relax:   janus.NewRelaxations(nil, []janus.Loc{"ctx.scratch"}),
	})
	_, stats, err := r.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retries: %d\n", stats.Run.Retries)
	// Output: retries: 0
}
