// Command janus-trace inspects the training-time dependence analysis
// (§5.1) for one benchmark: the sequential trace and the mined
// per-location, per-task operation sequences, with their §5.2 regular
// abstractions.
//
// Usage:
//
//	janus-trace -workload jfilesync
//	janus-trace -workload pmd -max 40
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/oplog"
	"repro/internal/seqabs"
	"repro/internal/train"
	"repro/internal/workloads"
)

func main() {
	var (
		name     = flag.String("workload", "", "benchmark to trace (required)")
		maxItems = flag.Int("max", 20, "max items to print per section")
	)
	flag.Parse()
	if *name == "" {
		fmt.Fprintln(os.Stderr, "janus-trace: -workload is required")
		flag.Usage()
		os.Exit(2)
	}
	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "janus-trace: %v\n", err)
		os.Exit(1)
	}
	st := w.NewState()
	p := train.NewProfiler(st)
	if err := p.Run(w.Tasks(workloads.Training, 1000)); err != nil {
		fmt.Fprintf(os.Stderr, "janus-trace: %v\n", err)
		os.Exit(1)
	}
	trace := p.Trace()
	fmt.Printf("benchmark: %s — training trace: %d operations\n\n", w.Name, len(trace))

	mined := train.Mine(trace)
	shared := train.SharedPLocs(mined)
	fmt.Printf("projection locations: %d total, %d shared across tasks\n\n", len(mined), len(shared))

	abs := &seqabs.Abstracter{Mode: seqabs.Abstract}
	fmt.Printf("mined shared-location sequences (showing up to %d locations):\n", *maxItems)
	printed := 0
	for _, ploc := range shared {
		if printed >= *maxItems {
			fmt.Printf("… %d more shared locations\n", len(shared)-printed)
			break
		}
		printed++
		fmt.Printf("%s:\n", ploc)
		seqs := mined[ploc]
		shown := seqs
		if len(shown) > 4 {
			shown = shown[:4]
		}
		for _, s := range shown {
			fmt.Printf("  task %d: %s\n", s[0].Task, symsString(s))
			fmt.Printf("    abstraction: %s\n", abs.Key(s.Syms()))
		}
		if len(seqs) > len(shown) {
			fmt.Printf("  … %d more task sequences\n", len(seqs)-len(shown))
		}
	}
}

// symsString renders a task sequence's symbolic descriptors.
func symsString(l oplog.Log) string {
	parts := make([]string, len(l))
	for i, sym := range l.Syms() {
		parts[i] = sym.String()
	}
	return strings.Join(parts, "; ")
}
