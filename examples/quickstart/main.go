// Quickstart: the paper's Figure 1 program.
//
// A collection of items is processed in a loop; pending work is
// accumulated into a shared counter and removed again when an item's
// processing succeeds. Most iterations therefore act as the identity on
// the shared state — yet classical write-set conflict detection aborts
// every interleaved pair of iterations, serializing the loop. JANUS's
// sequence-based detection learns from a short training run that the
// add/subtract sequences commute, and runs the loop in parallel with no
// aborts.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

const items = 64

// weightOf is the per-item work estimate of Figure 1.
func weightOf(item int) int64 { return int64(item%7 + 1) }

// processItem is a pure function; its success decides whether the item's
// weight is removed from the pending-work counter. The sleep stands in
// for per-item I/O (file comparison, network), which also lets iterations
// overlap in time even on a single-core host.
func processItem(item int) bool {
	time.Sleep(300 * time.Microsecond)
	return item%16 != 0 // most items succeed
}

func makeTask(work janus.Counter, item int) janus.Task {
	return func(ex janus.Executor) error {
		// work += weightOf(item)
		if err := work.Add(ex, weightOf(item)); err != nil {
			return err
		}
		if processItem(item) {
			// Item processed successfully: restore the pending work.
			return work.Sub(ex, weightOf(item))
		}
		return nil
	}
}

func main() {
	st := janus.NewState()
	work := janus.InitCounter(st, "work", 0)

	var tasks []janus.Task
	for i := 0; i < items; i++ {
		tasks = append(tasks, makeTask(work, i))
	}

	// Sequential baseline.
	seqFinal, err := janus.Sequential(st, tasks)
	if err != nil {
		log.Fatal(err)
	}

	// Train on a small prefix of the workload (single-threaded, no
	// synchronization), then run everything in parallel.
	runner := janus.New(janus.Config{Threads: 8, Detection: janus.DetectSequence})
	if err := runner.Train(st, tasks[:8]); err != nil {
		log.Fatal(err)
	}
	parFinal, stats, err := runner.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}

	// The write-set baseline aborts interleaved iterations.
	baseline := janus.New(janus.Config{Threads: 8, Detection: janus.DetectWriteSet})
	_, wsStats, err := baseline.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}

	seqWork, _ := seqFinal.Get("work")
	parWork, _ := parFinal.Get("work")
	fmt.Printf("pending work: sequential=%v parallel=%v (must agree)\n", seqWork, parWork)
	fmt.Printf("sequence-based detection: %d commits, %d retries\n",
		stats.Run.Commits, stats.Run.Retries)
	fmt.Printf("write-set detection:      %d commits, %d retries\n",
		wsStats.Run.Commits, wsStats.Run.Retries)
	fmt.Printf("cache: %d entries, %d hits, %d misses\n",
		runner.CacheStats().Entries, runner.CacheStats().Hits, runner.CacheStats().Misses)
	if !seqWork.EqualValue(parWork) {
		log.Fatal("parallel result diverged from sequential")
	}
}
