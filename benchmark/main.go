// Command benchmark is the repo's end-to-end benchmark with a per-layer
// budget: five named workloads, thirteen named end-to-end metrics, and a
// separate traced run per workload that times the calls into each layer.
// It drives the system through its public functions only, at the
// configuration users get, and checks every run's output against the
// sequential oracle. See README.md in this directory.
//
//	go run ./benchmark                      all workloads, measured then traced
//	go run ./benchmark -workload heavy-txn -seed 7 -seconds 15 -trace 0
//	go run ./benchmark -runs 10 -out new.json
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// Sizing for this 2-core sandbox: worker threads per runner and
// closed-loop client connections per serve workload.
const (
	threads = 2
	clients = 2
)

const loopStatement = "closed loop: each client sends its next batch only after the previous reply, as janus-serve callers do; the server sheds, it does not queue"

// options are one run's inputs. The seed reaches input generation only.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Quick    bool
	DataDir  string // parent of the run's scratch directory
	TraceOut string
}

// Set-up is repeated so that setup_s can be the fastest of several: five
// times, and on while the repeats have taken under two seconds in all,
// because a set-up of a few milliseconds is noisy.
const (
	setupRepeats = 5
	setupBudget  = 2 * time.Second
)

// moreSetup reports whether set-up should be repeated again, given how
// long each repeat so far took in seconds.
func moreSetup(o options, setups []float64) bool {
	if o.Quick {
		return len(setups) == 0
	}
	total := 0.0
	for _, s := range setups {
		total += s
	}
	return len(setups) < setupRepeats || total < setupBudget.Seconds()
}

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples are the sample counts behind the timings.
	Samples map[string]int `json:"samples"`
	Notes   []string       `json:"notes,omitempty"`
	raw     map[string]float64
}

func newResult(o options) *result {
	return &result{Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds, Trace: o.Trace,
		Correct: true, Samples: map[string]int{}, raw: map[string]float64{}}
}

func (r *result) set(name string, v float64) { r.raw[name] = v }

// fail counts n failed batches and marks the run incorrect.
func (r *result) fail(n int64, format string, args ...any) {
	r.Failed += n
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish resolves the raw values against the metric tables: every metric
// the workload measures must be present and finite; one it does not
// measure reads 0.
func (r *result) finish() error {
	r.set("failed_share", ratio(float64(r.Failed), float64(r.Attempted)))
	r.Metrics = map[string]value{}
	resolve := func(defs []metricDef, required bool) error {
		for _, m := range defs {
			v, ok := r.raw[m.Name]
			if !ok && required && m.on(r.Workload) {
				return fmt.Errorf("%s: metric %s not measured", r.Workload, m.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: metric %s is %v", r.Workload, m.Name, v)
			}
			r.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
		}
		return nil
	}
	if err := resolve(endToEnd, true); err != nil {
		return err
	}
	if err := resolve(perLayer, r.Trace); err != nil {
		return err
	}
	for name := range r.raw {
		if _, ok := r.Metrics[name]; !ok {
			return fmt.Errorf("%s: metric %s is not in the tables", r.Workload, name)
		}
	}
	return nil
}

// lastLine is the one JSON object the driver reads: the end_to_end
// metrics of an untraced run, the per_layer metrics of a traced one.
func (r *result) lastLine() string {
	defs := gateMetrics()
	if r.Trace {
		defs = layerMetrics()
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range defs {
		out.Metrics[m.Name] = r.Metrics[m.Name]
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // finite numbers and strings always encode
	}
	return string(b)
}

// runWorkload runs one workload in this process.
func runWorkload(o options) (*result, error) {
	scratch, err := makeScratch(o.DataDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	res := newResult(o)
	var tr *tracer
	switch o.Workload {
	case wlPaperMix, wlHeavyTxn:
		tr, err = runLibrary(o, res)
	case wlServeMem, wlServeDur:
		tr, err = runServe(o, res, scratch)
	case wlRecovery:
		tr, err = runRecovery(o, res, scratch)
	default:
		return nil, fmt.Errorf("unknown workload %q (see -list)", o.Workload)
	}
	if err != nil {
		return nil, err
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: nothing attempted", o.Workload)
	}
	if tr != nil && o.TraceOut != "" {
		if err := tr.write(o.TraceOut, o.Workload); err != nil {
			return nil, err
		}
	}
	return res, res.finish()
}

// makeScratch creates the run's scratch directory (data dirs, fixture
// copies) under parent, inside the checkout.
func makeScratch(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", fmt.Errorf("creating scratch parent: %w", err)
	}
	dir, err := os.MkdirTemp(parent, "janus-bench-")
	if err != nil {
		return "", fmt.Errorf("creating scratch dir: %w", err)
	}
	return filepath.Abs(dir)
}

// printReport writes one run's metrics by name and unit.
func printReport(r *result) {
	kind := "measured run, tracing off"
	if r.Trace {
		kind = "traced run"
	}
	fmt.Printf("== %s (%s, seed %d, %.0f s) correct=%v attempted=%d failed=%d\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed)
	fmt.Printf("   %s\n", loopStatement)
	show := func(defs []metricDef) {
		for _, m := range defs {
			if !m.on(r.Workload) {
				continue
			}
			if _, measured := r.raw[m.Name]; !measured {
				continue
			}
			fmt.Printf("   %-34s %14.4f %s\n", m.Name, r.Metrics[m.Name].Value, m.Unit)
		}
	}
	show(endToEnd)
	show(perLayer)
	keys := make([]string, 0, len(r.Samples))
	for k := range r.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("   samples %-26s %14d\n", k, r.Samples[k])
	}
	for _, n := range r.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (see -list); empty runs all five, each in its own process")
		seed     = flag.Int64("seed", 2024, "input-generation seed; reaches w.Tasks and batch contents only")
		seconds  = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run: half the time untraced for the counters, half with spans, then the staged stages")
		quick    = flag.Bool("quick", false, "smoke sizes: about a second per workload, tiny fixture")
		dataDir  = flag.String("data-dir", ".bench_build", "parent directory for data dirs and fixture copies")
		traceOut = flag.String("trace-out", "", "write the traced run's spans to this JSON file")
		detail   = flag.String("detail", "", "write the run's full result (every metric, sample counts) to this JSON file")
		runs     = flag.Int("runs", 1, "measured runs per workload when running all, seeds seed..seed+runs-1")
		out      = flag.String("out", "", "write the report of all runs to this JSON file")
		traceDir = flag.String("trace-dir", "", "when running all, keep each workload's spans as <dir>/<workload>.trace.json")
		list     = flag.Bool("list", false, "print every workload and metric name with unit and direction")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmark -compare old.json new.json")
	)
	flag.Parse()
	switch {
	case *list:
		printList(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *workload != "":
		o := options{Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			Quick: *quick, DataDir: *dataDir, TraceOut: *traceOut}
		res, err := runWorkload(o)
		if err != nil {
			fatal(err)
		}
		printReport(res)
		if *detail != "" {
			if err := writeJSON(*detail, res); err != nil {
				fatal(err)
			}
		}
		fmt.Println(res.lastLine())
		if !res.Correct {
			os.Exit(1)
		}
	default:
		if err := runAll(*seed, *seconds, *runs, *quick, *dataDir, *out, *traceDir); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report is the -out file: the host and configuration the numbers
// belong to, and every run.
type report struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Runs        []*result   `json:"runs"`
}

// runAll runs every workload, each run in its own re-executed process so
// one workload's heap cannot leak into the next: runs measured runs per
// workload, then one traced run each.
func runAll(seed int64, seconds float64, runs int, quick bool, dataDir, out, traceDir string) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	scratch, err := makeScratch(dataDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	rep := report{Fingerprint: takeFingerprint(seed, seconds, scratch)}
	child := func(workload string, seed int64, trace int) error {
		detail := filepath.Join(scratch, "detail.json")
		args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			"-trace", fmt.Sprint(trace), "-data-dir", dataDir, "-detail", detail}
		if quick {
			args = append(args, "-quick")
		}
		if trace == 1 && traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return err
			}
			args = append(args, "-trace-out", filepath.Join(traceDir, workload+".trace.json"))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
		}
		fmt.Printf("   whole run took %.1f s\n", time.Since(start).Seconds())
		b, err := os.ReadFile(detail)
		if err != nil {
			return err
		}
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			return fmt.Errorf("reading %s: %w", detail, err)
		}
		rep.Runs = append(rep.Runs, &res)
		return nil
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloadNames() {
			if err := child(w, seed+int64(i), 0); err != nil {
				return err
			}
		}
	}
	for _, w := range workloadNames() {
		if err := child(w, seed, 1); err != nil {
			return err
		}
	}
	if out != "" {
		return writeJSON(out, rep)
	}
	return nil
}
