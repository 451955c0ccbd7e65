// Package bench regenerates the JANUS evaluation (§7): the speedup curves
// of Figure 9, the retries-per-transaction ratios of Figure 10, the cache
// miss rates (with and without sequence abstraction) of Figure 11, and the
// Table 5 / Table 6 summaries. The harness follows the paper's
// methodology: five sequential training runs per benchmark, several
// production runs with the first (cold) run excluded, results averaged.
//
// Speedups come from the runtime's discrete-event driver (stm.Simulate)
// by default — the build host has too few cores for wall-clock parallel
// speedup at 8 threads to mean anything; see DESIGN.md. The goroutine
// driver (stm.Run), same protocol, can be selected for multi-core hosts.
package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/workloads"
)

// Mode selects the measurement substrate.
type Mode int

// Measurement modes.
const (
	// Simulated runs the protocol on the virtual-time machine.
	Simulated Mode = iota
	// WallClock runs the real goroutine runtime and measures time.
	WallClock
)

// String renders the mode.
func (m Mode) String() string {
	if m == WallClock {
		return "wall-clock"
	}
	return "simulated"
}

// Detection names the detector compared in the figures.
type Detection int

// Detectors.
const (
	Seq Detection = iota
	WS
)

// String renders the detector name as the figures label it.
func (d Detection) String() string {
	if d == WS {
		return "write-set"
	}
	return "sequence"
}

// Opts configure a harness run.
type Opts struct {
	// Mode selects simulated or wall-clock measurement.
	Mode Mode
	// Size selects the input scale (Table 6 production by default).
	Size workloads.Size
	// ProdRuns is the number of measured production runs per
	// configuration, after one excluded cold run (the paper uses 10).
	// Simulated runs are deterministic, so 1 suffices there.
	ProdRuns int
	// Threads are the worker counts swept in Figures 9 and 10.
	Threads []int
	// Workloads filters the suite by name; empty means all.
	Workloads []string
	// Machine overrides the simulated host (nil = the paper's 4-core
	// 2-way-SMT Nehalem). The §7.2 discussion notes their hardware could
	// not run 8 threads fully in parallel; sweeping Cores projects the
	// evaluation onto modern machines.
	Machine *stm.Machine
	// BackoffBase enables bounded exponential retry backoff in profiled
	// runs (0 = retry immediately).
	BackoffBase time.Duration
	// ChaosSeed, when nonzero, runs profiled runs under deterministic
	// fault injection (internal/chaos) with this seed: forced aborts,
	// stretched commit windows, forced commutativity-cache misses, and a
	// contiguous storm of forced misses early in the run.
	ChaosSeed int64
	// RecordPath, when set, captures each profiled run as a replayable
	// binary trace (internal/rec) of the whole run and writes it there at
	// the end.
	RecordPath string
	// OpsPerTxn sets the synthetic heavy workload's operations per
	// transaction (0 = workloads.DefaultHeavyOps). Only the "heavy"
	// workload reads it.
	OpsPerTxn int
	// TxnSkew biases the heavy workload's location choice toward a hot
	// subset (0 = uniform); see workloads.Heavy.
	TxnSkew float64
}

// Resolve returns the named workload. The synthetic "heavy" workload is
// parameterized by the Opts knobs, so it is constructed here rather than
// fetched from the fixed paper suite.
func (o Opts) Resolve(name string) (*workloads.Workload, error) {
	if name == workloads.HeavyName {
		return workloads.Heavy(o.OpsPerTxn, o.TxnSkew), nil
	}
	return workloads.ByName(name)
}

func (o Opts) defaults() Opts {
	if o.ProdRuns == 0 {
		if o.Mode == WallClock {
			o.ProdRuns = 3
		} else {
			o.ProdRuns = 1
		}
	}
	if len(o.Threads) == 0 {
		o.Threads = []int{1, 2, 4, 8}
	}
	return o
}

// simConfig is the one place a simulated run's configuration is built
// from the options, so no consumer can drop a field.
func (o Opts) simConfig(w *workloads.Workload, det conflict.Detector, threads int) stm.SimConfig {
	return stm.SimConfig{
		Threads:  threads,
		Ordered:  w.Ordered,
		Detector: det,
		Machine:  o.Machine,
	}
}

func machineLabel(o Opts) string {
	if o.Machine == nil {
		return ""
	}
	return fmt.Sprintf(", machine=%d-core", o.Machine.Cores)
}

func (o Opts) suite() ([]*workloads.Workload, error) {
	if len(o.Workloads) == 0 {
		return workloads.All(), nil
	}
	var out []*workloads.Workload
	for _, name := range o.Workloads {
		w, err := o.Resolve(name)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// prodSeed selects the measured production input (even ⇒ the large
// Table 6 variant).
const prodSeed = 2024

// Result is one (workload, detector, threads) measurement.
type Result struct {
	Workload   string
	Detector   string
	Threads    int
	Speedup    float64
	Tasks      int
	Retries    float64
	RetryRatio float64
}

// trainEngine builds and trains the hindsight engine for w under the
// given abstraction setting (five training runs, §7.1), then freezes the
// cache: the harness only measures production runs, which read the spec
// but never extend it.
func (o Opts) trainEngine(w *workloads.Workload, disableAbs bool) (*core.Engine, error) {
	engine := core.NewEngine(core.Options{
		DisableAbstraction: disableAbs,
		Relax:              w.Relaxations,
	})
	if err := engine.TrainMany(w.NewState(), w.TrainingPayloads()); err != nil {
		return nil, err
	}
	engine.Freeze()
	return engine, nil
}

func (o Opts) detectorFor(engine *core.Engine, det Detection) conflict.Detector {
	if det == WS {
		return conflict.NewWriteSet()
	}
	return engine.Detector()
}

// Measure produces one Result.
func Measure(w *workloads.Workload, det Detection, threads int, o Opts) (Result, error) {
	o = o.defaults()
	engine, err := o.trainEngine(w, false)
	if err != nil {
		return Result{}, err
	}
	return measureWith(engine, w, det, threads, o)
}

func measureWith(engine *core.Engine, w *workloads.Workload, det Detection, threads int, o Opts) (Result, error) {
	tasks := w.Tasks(o.Size, prodSeed)
	res := Result{Workload: w.Name, Detector: det.String(), Threads: threads, Tasks: len(tasks)}
	if o.Mode == Simulated {
		// Deterministic: one run (repeats would be identical, and the
		// frozen cache leaves nothing to warm).
		_, stats, err := stm.Simulate(o.simConfig(w, o.detectorFor(engine, det), threads), w.NewState(), tasks)
		if err != nil {
			return Result{}, err
		}
		res.Speedup = stats.Speedup
		res.Retries = float64(stats.Retries)
		res.RetryRatio = stats.RetryRatio()
		return res, nil
	}
	// Wall-clock mode.
	seqTime, err := wallSequential(w, tasks, o.ProdRuns)
	if err != nil {
		return Result{}, err
	}
	var elapsed time.Duration
	var retries int64
	runs := o.ProdRuns + 1 // first run cold, excluded
	for i := 0; i < runs; i++ {
		start := time.Now()
		_, stats, err := stm.Run(stm.Config{
			Threads:  threads,
			Ordered:  w.Ordered,
			Detector: o.detectorFor(engine, det),
		}, w.NewState(), tasks)
		if err != nil {
			return Result{}, err
		}
		if i == 0 {
			continue
		}
		elapsed += time.Since(start)
		retries += stats.Retries
	}
	elapsed /= time.Duration(o.ProdRuns)
	res.Speedup = float64(seqTime) / float64(elapsed)
	res.Retries = float64(retries) / float64(o.ProdRuns)
	res.RetryRatio = res.Retries / float64(len(tasks))
	return res, nil
}

func wallSequential(w *workloads.Workload, tasks []adt.Task, runs int) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < runs; i++ {
		start := time.Now()
		if _, err := stm.RunSequential(w.NewState(), tasks); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return total / time.Duration(runs), nil
}

// figureRows runs the (workload × detector × threads) sweep once and
// returns all results, reusing one trained engine per workload.
func figureRows(o Opts) ([]Result, error) {
	suite, err := o.suite()
	if err != nil {
		return nil, err
	}
	var rows []Result
	for _, w := range suite {
		engine, err := o.trainEngine(w, false)
		if err != nil {
			return nil, fmt.Errorf("bench: training %s: %w", w.Name, err)
		}
		for _, det := range []Detection{Seq, WS} {
			for _, th := range o.Threads {
				res, err := measureWith(engine, w, det, th, o)
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s/%d: %w", w.Name, det, th, err)
				}
				rows = append(rows, res)
			}
		}
	}
	return rows, nil
}

// Figure9 regenerates the speedup series: per benchmark and detector,
// speedup over the sequential baseline for each thread count.
func Figure9(out io.Writer, o Opts) error {
	o = o.defaults()
	rows, err := figureRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Figure 9: speedup vs sequential (input=%s, mode=%s%s)\n", o.Size, o.Mode, machineLabel(o))
	renderSeries(out, o, rows, func(r Result) float64 { return r.Speedup }, "%7.2f")
	return nil
}

// Figure10 regenerates the retries-to-transactions ratios.
func Figure10(out io.Writer, o Opts) error {
	o = o.defaults()
	rows, err := figureRows(o)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Figure 10: retries per transaction (input=%s, mode=%s)\n", o.Size, o.Mode)
	renderSeries(out, o, rows, func(r Result) float64 { return r.RetryRatio }, "%7.3f")
	return nil
}

// renderSeries prints one figure's rows plus per-detector averages.
func renderSeries(out io.Writer, o Opts, rows []Result, metric func(Result) float64, cell string) {
	fmt.Fprintf(out, "%-11s %-10s", "benchmark", "detector")
	for _, th := range o.Threads {
		fmt.Fprintf(out, " %7s", fmt.Sprintf("%dthr", th))
	}
	fmt.Fprintln(out)
	value := make(map[string]float64, len(rows))
	var names []string
	seen := map[string]bool{}
	for _, r := range rows {
		value[fmt.Sprintf("%s/%s/%d", r.Workload, r.Detector, r.Threads)] = metric(r)
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	for _, name := range names {
		for _, det := range []Detection{Seq, WS} {
			fmt.Fprintf(out, "%-11s %-10s", name, det)
			for _, th := range o.Threads {
				fmt.Fprintf(out, " "+cell, value[fmt.Sprintf("%s/%s/%d", name, det, th)])
			}
			fmt.Fprintln(out)
		}
	}
	for _, det := range []Detection{Seq, WS} {
		fmt.Fprintf(out, "%-11s %-10s", "average", det)
		for _, th := range o.Threads {
			sum := 0.0
			for _, name := range names {
				sum += value[fmt.Sprintf("%s/%s/%d", name, det, th)]
			}
			fmt.Fprintf(out, " "+cell, sum/float64(len(names)))
		}
		fmt.Fprintln(out)
	}
}

// MissRates measures the Figure 11 metrics for one workload: the unique
// conflict-query miss rate at the given thread count, with and without
// sequence abstraction.
func MissRates(w *workloads.Workload, threads int, o Opts) (withAbs, withoutAbs float64, err error) {
	o = o.defaults()
	tasks := w.Tasks(o.Size, prodSeed)
	for _, disable := range []bool{false, true} {
		engine, err := o.trainEngine(w, disable)
		if err != nil {
			return 0, 0, err
		}
		// Cold run, then reset accounting and measure (§7.1: averages
		// exclude the first run; unique-query rates are deterministic).
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				engine.Cache().ResetStats()
			}
			if o.Mode == Simulated {
				if _, _, err := stm.Simulate(o.simConfig(w, engine.Detector(), threads), w.NewState(), tasks); err != nil {
					return 0, 0, err
				}
			} else {
				if _, _, err := stm.Run(stm.Config{
					Threads:  threads,
					Ordered:  w.Ordered,
					Detector: engine.Detector(),
				}, w.NewState(), tasks); err != nil {
					return 0, 0, err
				}
			}
		}
		rate := engine.Cache().Stats().UniqueMissRate()
		if disable {
			withoutAbs = rate
		} else {
			withAbs = rate
		}
	}
	return withAbs, withoutAbs, nil
}

// Figure11 regenerates the miss-rate comparison at the highest swept
// thread count (the paper reports 8 threads).
func Figure11(out io.Writer, o Opts) error {
	o = o.defaults()
	suite, err := o.suite()
	if err != nil {
		return err
	}
	threads := o.Threads[len(o.Threads)-1]
	fmt.Fprintf(out, "Figure 11: unique conflict-query miss rate (%d threads, input=%s, mode=%s)\n",
		threads, o.Size, o.Mode)
	fmt.Fprintf(out, "%-11s %12s %15s\n", "benchmark", "abstraction", "no-abstraction")
	var sumWith, sumWithout float64
	for _, w := range suite {
		withAbs, withoutAbs, err := MissRates(w, threads, o)
		if err != nil {
			return fmt.Errorf("bench: %s: %w", w.Name, err)
		}
		fmt.Fprintf(out, "%-11s %11.0f%% %14.0f%%\n", w.Name, withAbs*100, withoutAbs*100)
		sumWith += withAbs
		sumWithout += withoutAbs
	}
	n := float64(len(suite))
	fmt.Fprintf(out, "%-11s %11.0f%% %14.0f%%\n", "average", sumWith/n*100, sumWithout/n*100)
	return nil
}

// Table5 prints the benchmark characteristics.
func Table5(out io.Writer) {
	fmt.Fprintln(out, "Table 5: benchmark characteristics")
	fmt.Fprintf(out, "%-11s %-8s %-58s %s\n", "name", "version", "description", "prevalent patterns")
	for _, w := range workloads.All() {
		fmt.Fprintf(out, "%-11s %-8s %-58s %s\n", w.Name, w.Version, w.Desc, join(w.Patterns))
	}
}

// Table6 prints the training and production inputs.
func Table6(out io.Writer) {
	fmt.Fprintln(out, "Table 6: inputs for training and production runs")
	fmt.Fprintf(out, "%-11s %-55s %s\n", "benchmark", "training data", "production data")
	for _, w := range workloads.All() {
		fmt.Fprintf(out, "%-11s %-55s %s\n", w.Name, w.TrainingInput, w.ProductionInput)
	}
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

// TrainingSummary prints the per-benchmark training reports (cache sizes,
// proved conditions, §6.2 content-check counts) — useful context for the
// Figure 11 discussion.
func TrainingSummary(out io.Writer) error {
	fmt.Fprintln(out, "Training summary (5 payloads per benchmark, abstraction on)")
	for _, w := range workloads.All() {
		engine, err := Opts{}.trainEngine(w, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: cache entries=%d\n", w.Name, engine.Cache().Len())
		for i, rep := range engine.Reports() {
			fmt.Fprintf(out, "  run %d: %s\n", i+1, rep)
		}
	}
	return nil
}

// Timeline runs one workload on the simulated machine with schedule
// recording and prints the per-task timeline (first start, commit time,
// attempts) in commit order — a Gantt-style view of how the detector's
// precision translates into scheduling.
func Timeline(out io.Writer, name string, threads int, o Opts) error {
	o = o.defaults()
	w, err := o.Resolve(name)
	if err != nil {
		return err
	}
	engine, err := o.trainEngine(w, false)
	if err != nil {
		return err
	}
	tasks := w.Tasks(o.Size, prodSeed)
	cfg := o.simConfig(w, engine.Detector(), threads)
	cfg.RecordTimeline = true
	_, stats, err := stm.Simulate(cfg, w.NewState(), tasks)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Timeline: %s, %d threads, %d tasks (input=%s)\n",
		w.Name, threads, stats.Tasks, o.Size)
	fmt.Fprintf(out, "makespan=%.0f units, speedup=%.2fx, retries=%d\n\n",
		stats.Makespan, stats.Speedup, stats.Retries)
	fmt.Fprintf(out, "%6s %12s %12s %9s\n", "task", "start", "commit", "attempts")
	const maxRows = 24
	rows := stats.Timeline
	truncated := 0
	if len(rows) > maxRows {
		truncated = len(rows) - maxRows
		rows = rows[:maxRows]
	}
	for _, tt := range rows {
		fmt.Fprintf(out, "%6d %12.0f %12.0f %9d\n", tt.Task, tt.Start, tt.Commit, tt.Attempts)
	}
	if truncated > 0 {
		fmt.Fprintf(out, "… %d more commits\n", truncated)
	}
	return nil
}
