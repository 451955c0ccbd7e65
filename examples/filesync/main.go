// Filesync: the JFileSync pattern (paper Figure 2).
//
// A directory-synchronization loop processes pairs of directories. Each
// iteration pushes progress entries onto shared monitor stacks
// (itemsStarted, itemsWeight), recursively compares files with balanced
// push/pop bookkeeping (the identity pattern), scribbles on the monitor's
// rootUriSrc/rootUriTgt scratch fields (shared-as-local), and polls a
// shared cancellation flag. The balanced sequences restore the monitor,
// so iterations commute — but only sequence-wide reasoning can see that.
//
// Run with: go run ./examples/filesync
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
)

type dirPair struct {
	src, tgt string
	files    []int64 // per-file weights discovered under the pair
}

func comparePair(started, weight janus.Stack, src, tgt janus.StrVar, canceled janus.BoolVar, p dirPair) janus.Task {
	// The roots the task stores, boxed once with the task: every run and
	// retry of the body binds the same values.
	srcVal, tgtVal := janus.Value(janus.Str(p.src)), janus.Value(janus.Str(p.tgt))
	return func(ex janus.Executor) error {
		if err := started.Push(ex, 2); err != nil {
			return err
		}
		if err := weight.Push(ex, 1); err != nil {
			return err
		}
		if err := src.Store(ex, srcVal); err != nil {
			return err
		}
		if err := tgt.Store(ex, tgtVal); err != nil {
			return err
		}
		stop, err := canceled.Load(ex)
		if err != nil {
			return err
		}
		if !stop {
			var total int64
			for _, w := range p.files {
				total += w
			}
			if err := started.Push(ex, int64(len(p.files))); err != nil {
				return err
			}
			if err := weight.Push(ex, total); err != nil {
				return err
			}
			for _, w := range p.files {
				if err := weight.Push(ex, w); err != nil {
					return err
				}
				time.Sleep(time.Duration(80+w*20) * time.Microsecond) // compareFiles
				if _, err := weight.Pop(ex); err != nil {
					return err
				}
			}
			if _, err := weight.Pop(ex); err != nil {
				return err
			}
			if _, err := started.Pop(ex); err != nil {
				return err
			}
		}
		if _, err := weight.Pop(ex); err != nil {
			return err
		}
		if _, err := started.Pop(ex); err != nil {
			return err
		}
		return nil
	}
}

func buildTasks(st *janus.State, pairs []dirPair) []janus.Task {
	started := janus.Stack{L: "monitor.itemsStarted"}
	weight := janus.Stack{L: "monitor.itemsWeight"}
	src := janus.StrVar{L: "monitor.rootUriSrc"}
	tgt := janus.StrVar{L: "monitor.rootUriTgt"}
	canceled := janus.BoolVar{L: "progress.canceled"}
	var tasks []janus.Task
	for _, p := range pairs {
		tasks = append(tasks, comparePair(started, weight, src, tgt, canceled, p))
	}
	return tasks
}

func newState() *janus.State {
	st := janus.NewState()
	janus.InitStack(st, "monitor.itemsStarted")
	janus.InitStack(st, "monitor.itemsWeight")
	janus.InitStrVar(st, "monitor.rootUriSrc", "")
	janus.InitStrVar(st, "monitor.rootUriTgt", "")
	janus.InitBoolVar(st, "progress.canceled", false)
	return st
}

func main() {
	var pairs []dirPair
	for i := 0; i < 40; i++ {
		files := make([]int64, 2+i%5)
		for j := range files {
			files[j] = int64(1 + (i+j)%4)
		}
		pairs = append(pairs, dirPair{
			src:   fmt.Sprintf("/src/dir%02d", i),
			tgt:   fmt.Sprintf("/tgt/dir%02d", i),
			files: files,
		})
	}
	st := newState()
	tasks := buildTasks(st, pairs)

	// The monitor's scratch URI fields tolerate write-after-write
	// conflicts (their values are per-iteration scratch), per §5.3.
	relax := janus.NewRelaxations(nil, []janus.Loc{"monitor.rootUriSrc", "monitor.rootUriTgt"})

	runner := janus.New(janus.Config{Threads: 8, Relax: relax})
	if err := runner.Train(st, tasks[:6]); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	final, stats, err := runner.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}
	parElapsed := time.Since(start)

	start = time.Now()
	seqFinal, err := janus.Sequential(st, tasks)
	if err != nil {
		log.Fatal(err)
	}
	seqElapsed := time.Since(start)

	// The scratch URI fields are WAW-relaxed: their final value reflects
	// the commit order, which legitimately differs from the sequential
	// order. Every other location must agree exactly.
	for _, loc := range []janus.Loc{"monitor.itemsStarted", "monitor.itemsWeight", "progress.canceled"} {
		want, _ := seqFinal.Get(loc)
		got, _ := final.Get(loc)
		if !want.EqualValue(got) {
			log.Fatalf("%s: parallel %v != sequential %v", loc, got, want)
		}
	}
	v, _ := final.Get("monitor.itemsStarted")
	fmt.Printf("synchronized %d directory pairs; monitor restored to %v\n", len(pairs), v)
	fmt.Printf("sequential: %v   parallel (8 threads): %v   speedup: %.2fx\n",
		seqElapsed.Round(time.Millisecond), parElapsed.Round(time.Millisecond),
		float64(seqElapsed)/float64(parElapsed))
	fmt.Printf("commits=%d retries=%d cache hits=%d misses=%d\n",
		stats.Run.Commits, stats.Run.Retries,
		runner.CacheStats().Hits, runner.CacheStats().Misses)
}
