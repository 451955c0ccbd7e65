// Codescan: the PMD pattern (paper Figure 4).
//
// A source-code analyzer iterates over files. Every iteration overwrites
// the shared RuleContext's sourceCodeFilename/sourceCodeFile fields and
// installs a per-rule COUNTER attribute, reads them back while rules run,
// removes the attribute, and accumulates findings into shared counters.
// Write-set detection aborts every interleaved pair (all iterations write
// the same ctx fields); JANUS tolerates the scratch fields' WAW conflicts
// (§5.3) and proves the attribute and counter sequences commutative.
//
// Run with: go run ./examples/codescan
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro"
)

var sources = func() []string {
	var out []string
	for i := 0; i < 48; i++ {
		out = append(out, fmt.Sprintf("src/service/Handler%02d.java", i))
	}
	return out
}()

func analyze(name string) int64 {
	time.Sleep(250 * time.Microsecond)     // rule evaluation
	return int64(strings.Count(name, "4")) // "violations"
}

func scanTask(filename, file janus.StrVar, attrs janus.KVMap, violations, analyzed janus.Counter, name string, id int) janus.Task {
	// The strings the task stores are built and boxed once, with the
	// task, not on every run (a retry runs the body again).
	nameVal := janus.Value(janus.Str(name))
	fileVal := janus.Value(janus.Str("file:" + name))
	counter := fmt.Sprintf("rule-counter-%d", id)
	return func(ex janus.Executor) error {
		if err := filename.Store(ex, nameVal); err != nil {
			return err
		}
		if err := file.Store(ex, fileVal); err != nil {
			return err
		}
		if err := attrs.Put(ex, "COUNTER", counter); err != nil {
			return err
		}
		for pass := 0; pass < 3; pass++ {
			if _, err := filename.Load(ex); err != nil {
				return err
			}
			if _, _, err := attrs.Get(ex, "COUNTER"); err != nil {
				return err
			}
		}
		found := analyze(name)
		if err := attrs.Remove(ex, "COUNTER"); err != nil {
			return err
		}
		if found > 0 {
			if err := violations.Add(ex, found); err != nil {
				return err
			}
		}
		return analyzed.Add(ex, 1)
	}
}

func main() {
	st := janus.NewState()
	filename := janus.InitStrVar(st, "ctx.sourceCodeFilename", "")
	file := janus.InitStrVar(st, "ctx.sourceCodeFile", "")
	attrs := janus.InitKVMap(st, "ctx.attributes")
	violations := janus.InitCounter(st, "metrics.violations", 0)
	analyzed := janus.InitCounter(st, "metrics.analyzed", 0)

	var tasks []janus.Task
	for i, name := range sources {
		tasks = append(tasks, scanTask(filename, file, attrs, violations, analyzed, name, i))
	}

	relax := janus.NewRelaxations(nil, []janus.Loc{"ctx.sourceCodeFilename", "ctx.sourceCodeFile"})
	runner := janus.New(janus.Config{Threads: 8, Relax: relax})
	if err := runner.Train(st, tasks[:6]); err != nil {
		log.Fatal(err)
	}
	final, stats, err := runner.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}
	baseline := janus.New(janus.Config{Threads: 8, Detection: janus.DetectWriteSet})
	_, wsStats, err := baseline.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}

	an, _ := final.Get("metrics.analyzed")
	vi, _ := final.Get("metrics.violations")
	fmt.Printf("analyzed %v files, %v violations\n", an, vi)
	fmt.Printf("sequence-based: %d retries; write-set: %d retries\n",
		stats.Run.Retries, wsStats.Run.Retries)
	for i, rep := range runner.TrainingReports() {
		fmt.Printf("training run %d: %s\n", i+1, rep)
	}
}
