// janus-benchjson folds `go test -bench` output into a JSON benchmark
// trajectory file, so performance changes are recorded next to the code
// that caused them instead of in CI logs that expire.
//
// The trajectory file holds one entry per label; re-recording a label
// replaces its entry and leaves the others untouched, so a "before"
// baseline recorded once survives any number of "after" refreshes:
//
//	go test -bench CommitParallel -benchmem ./internal/stm |
//	    janus-benchjson -file BENCH_commit.json -label after
//
// With -reports, stdin is instead a JSON array of bench.RunReport (the
// output of `janus-bench -json` or `janus-replay -json`); each report
// folds into the trajectory as wall-clock results, so replayed
// production captures leave the same regression trail as benchmarks:
//
//	janus-replay -json janus.trace |
//	    janus-benchjson -reports -file BENCH_replay.json -label replay
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra holds custom b.ReportMetric columns (e.g. live-B retained
	// memory, retries/txn) keyed by their unit string.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Entry is one labeled benchmark run.
type Entry struct {
	Label   string   `json:"label"`
	Goos    string   `json:"goos,omitempty"`
	Goarch  string   `json:"goarch,omitempty"`
	CPU     string   `json:"cpu,omitempty"`
	Pkg     string   `json:"pkg,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	file := flag.String("file", "BENCH_commit.json", "trajectory file to update")
	label := flag.String("label", "", "label to record this run under (required)")
	reports := flag.Bool("reports", false, "parse stdin as a bench.RunReport JSON array (janus-bench/janus-replay -json) instead of go test -bench text")
	flag.Parse()
	if *label == "" {
		fmt.Fprintln(os.Stderr, "janus-benchjson: -label is required")
		os.Exit(2)
	}
	var entry *Entry
	var err error
	if *reports {
		entry, err = parseReports(os.Stdin)
	} else {
		entry, err = parse(bufio.NewScanner(os.Stdin))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "janus-benchjson:", err)
		os.Exit(1)
	}
	entry.Label = *label
	entries, err := load(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "janus-benchjson:", err)
		os.Exit(1)
	}
	replaced := false
	for i := range entries {
		if entries[i].Label == *label {
			entries[i] = *entry
			replaced = true
			break
		}
	}
	if !replaced {
		entries = append(entries, *entry)
	}
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "janus-benchjson:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*file, append(out, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "janus-benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "janus-benchjson: recorded %d results under %q in %s\n",
		len(entry.Results), *label, *file)
}

func load(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var entries []Entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return entries, nil
}

// parseReports reads a bench.RunReport JSON array and renders each report
// as two pseudo-benchmark results: the parallel run (Run/<workload>, one
// iteration at the report's thread count) and its sequential baseline
// (Sequential/<workload>). Failed reports are rejected — a trajectory
// entry must not record a broken run as a data point.
func parseReports(in *os.File) (*Entry, error) {
	var reps []bench.RunReport
	if err := json.NewDecoder(in).Decode(&reps); err != nil {
		return nil, fmt.Errorf("parsing RunReport array: %w", err)
	}
	if len(reps) == 0 {
		return nil, errors.New("no reports on stdin")
	}
	e := &Entry{Pkg: "repro/internal/bench"}
	for _, r := range reps {
		if r.Error != "" {
			return nil, fmt.Errorf("report %s/%s failed: %s", r.Workload, r.Detector, r.Error)
		}
		name := r.Workload
		if r.Detector != "" {
			name += "/" + r.Detector
		}
		if r.ElapsedNs > 0 {
			e.Results = append(e.Results, Result{
				Name: "Run/" + name, Procs: r.Threads,
				Iterations: 1, NsPerOp: float64(r.ElapsedNs),
			})
		}
		if r.SequentialNs > 0 {
			e.Results = append(e.Results, Result{
				Name: "Sequential/" + name, Procs: 1,
				Iterations: 1, NsPerOp: float64(r.SequentialNs),
			})
		}
	}
	if len(e.Results) == 0 {
		return nil, errors.New("reports carried no timings")
	}
	return e, nil
}

// parse reads `go test -bench` text output: header lines (goos, goarch,
// cpu, pkg) followed by benchmark result lines.
func parse(sc *bufio.Scanner) (*Entry, error) {
	e := &Entry{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			e.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			e.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			e.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			e.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			r, err := parseResult(line)
			if err != nil {
				return nil, err
			}
			e.Results = append(e.Results, *r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(e.Results) == 0 {
		return nil, errors.New("no benchmark result lines on stdin")
	}
	return e, nil
}

// parseResult parses one line of the form
//
//	BenchmarkName-8   12345   678.9 ns/op   100 B/op   3 allocs/op
//
// where the -procs suffix and the B/op and allocs/op columns are optional.
func parseResult(line string) (*Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return nil, fmt.Errorf("short benchmark line: %q", line)
	}
	r := &Result{Name: fields[0], Procs: 1}
	if i := strings.LastIndexByte(r.Name, '-'); i >= 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = p
			r.Name = r.Name[:i]
		}
	}
	var err error
	if r.Iterations, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
		return nil, fmt.Errorf("bad iteration count in %q: %w", line, err)
	}
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if r.NsPerOp, err = strconv.ParseFloat(val, 64); err != nil {
				return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
			}
		case "B/op":
			if r.BytesPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return nil, fmt.Errorf("bad B/op in %q: %w", line, err)
			}
		case "allocs/op":
			if r.AllocsPerOp, err = strconv.ParseInt(val, 10, 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
			}
		default:
			// A custom b.ReportMetric column; keep it under its unit so
			// trajectories can track memory/ratio metrics the standard
			// columns don't cover.
			if v, perr := strconv.ParseFloat(val, 64); perr == nil {
				if r.Extra == nil {
					r.Extra = make(map[string]float64)
				}
				r.Extra[unit] = v
			}
		}
	}
	return r, nil
}
