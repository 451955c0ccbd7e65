package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/oplog"
	"repro/internal/seqabs"
	"repro/internal/state"
	"repro/internal/train"
	"repro/internal/workloads"
)

// runTrain runs the offline training phase (§5.1) for one workload and
// prints the learned specification: the cache of abstract sequence-pair
// patterns with their proved condition kinds, after the per-payload
// training reports. With -out it also writes the specification, the
// artifact a deployment loads (Figure 6).
func runTrain(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("train", stderr)
	workload := workloadFlag(fs)
	noAbs := fs.Bool("no-abstraction", false, "disable §5.2 sequence abstraction")
	out := fs.String("out", "", "also write the trained specification as JSON to this file")
	if err := parse(fs, args); err != nil {
		return err
	}
	w, err := workload()
	if err != nil {
		return err
	}
	engine := core.NewEngine(core.Options{DisableAbstraction: *noAbs, Relax: w.Relaxations})
	if err := engine.TrainMany(w.NewState(), w.TrainingPayloads()); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchmark: %s (%s)\n", w.Name, w.Desc)
	fmt.Fprintf(stdout, "abstraction: %v\n\n", !*noAbs)
	for i, rep := range engine.Reports() {
		fmt.Fprintf(stdout, "training run %d: %s\n", i+1, rep)
	}
	fmt.Fprintf(stdout, "\ncommutativity specification (%d entries):\n%s", engine.Cache().Len(), engine.Cache().Dump())
	if *out == "" {
		return nil
	}
	// Published through fsio's temp+fsync+rename, so a crash or a full
	// disk mid-write never leaves a truncated artifact at the path.
	if err := fsio.WriteAtomicFunc(*out, func(w io.Writer) error { return engine.SaveSpec(w) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nspecification written to %s\n", *out)
	return nil
}

// profile runs one workload's training inputs sequentially and returns
// the profiled trace, the input of both trace and advise.
func profile(w *workloads.Workload) (oplog.Log, error) {
	p := train.NewProfiler(w.NewState())
	if err := p.Run(w.Tasks(workloads.Training, 1000)); err != nil {
		return nil, err
	}
	return p.Trace(), nil
}

// runTrace prints the training-time dependence analysis (§5.1) of one
// workload: the mined per-location, per-task operation sequences of the
// shared locations, with their §5.2 regular abstractions.
func runTrace(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("trace", stderr)
	workload := workloadFlag(fs)
	maxItems := fs.Int("max", 20, "max items to print per section")
	if err := parse(fs, args); err != nil {
		return err
	}
	w, err := workload()
	if err != nil {
		return err
	}
	trace, err := profile(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchmark: %s — training trace: %d operations\n\n", w.Name, len(trace))

	mined := train.Mine(trace)
	shared := train.SharedPLocs(mined)
	fmt.Fprintf(stdout, "projection locations: %d total, %d shared across tasks\n\n", len(mined), len(shared))

	abs := &seqabs.Abstracter{Mode: seqabs.Abstract}
	fmt.Fprintf(stdout, "mined shared-location sequences (showing up to %d locations):\n", *maxItems)
	for i, ploc := range shared {
		if i >= *maxItems {
			fmt.Fprintf(stdout, "… %d more shared locations\n", len(shared)-i)
			break
		}
		fmt.Fprintf(stdout, "%s:\n", ploc)
		seqs := mined[ploc]
		shown := seqs[:min(len(seqs), 4)]
		for _, s := range shown {
			syms := make([]string, len(s))
			for j, sym := range s.Syms() {
				syms[j] = sym.String()
			}
			fmt.Fprintf(stdout, "  task %d: %s\n", s[0].Task, strings.Join(syms, "; "))
			fmt.Fprintf(stdout, "    abstraction: %s\n", abs.Key(s.Syms()))
		}
		if len(seqs) > len(shown) {
			fmt.Fprintf(stdout, "  … %d more task sequences\n", len(seqs)-len(shown))
		}
	}
	return nil
}

// runAdvise profiles one workload sequentially and reports, per shared
// location, the §2 semantic pattern it exhibits and the §5.3 consistency
// relaxations that justifies: the automated counterpart of the paper's
// hand-written specification step (§7.1).
func runAdvise(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := newFlags("advise", stderr)
	workload := workloadFlag(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	w, err := workload()
	if err != nil {
		return err
	}
	trace, err := profile(w)
	if err != nil {
		return err
	}
	rep := advisor.Analyze(trace)
	fmt.Fprintf(stdout, "benchmark: %s — %d shared locations\n\n", w.Name, len(rep.Findings))
	rep.Render(stdout)

	printSpec := func(m map[state.Loc]bool, kind string) {
		var locs []string
		for l, on := range m {
			if on {
				locs = append(locs, string(l))
			}
		}
		sort.Strings(locs)
		if len(locs) == 0 {
			fmt.Fprintf(stdout, "  tolerate %s: (none)\n", kind)
		}
		for _, l := range locs {
			fmt.Fprintf(stdout, "  tolerate %s: %s\n", kind, l)
		}
	}
	safe := rep.SafeRelaxations()
	fmt.Fprintf(stdout, "\nsafe relaxation specification:\n")
	printSpec(safe.RAW, "RAW")
	printSpec(safe.WAW, "WAW")
	if w.Relaxations != nil {
		fmt.Fprintf(stdout, "\nhand-written specification (internal/workloads):\n")
		printSpec(w.Relaxations.RAW, "RAW")
		printSpec(w.Relaxations.WAW, "WAW")
	}
	return nil
}
