package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json to the contract's
// limits and to the metric tables the program emits from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(f.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not made of [A-Za-z0-9_.-]", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range f.Workloads {
		check(w.Name, "")
		if i >= len(workloadDefs) || w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d is %q, the tables disagree", i, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	gates := gateMetrics()
	if len(f.EndToEnd) != len(gates) {
		t.Fatalf("%d end-to-end metrics, the tables gate %d", len(f.EndToEnd), len(gates))
	}
	hasSetup := false
	for i, m := range f.EndToEnd {
		check(m.Name, m.Unit)
		if g := gates[i]; m.Name != g.Name || m.Unit != g.Unit || m.Better != g.Better || m.Bound != g.Bound {
			t.Errorf("end-to-end %d is %+v, the tables say %+v", i, m, g)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	layers := layerMetrics()
	if len(f.PerLayer) != len(layers) {
		t.Fatalf("%d per-layer metrics, the tables have %d", len(f.PerLayer), len(layers))
	}
	for i, m := range f.PerLayer {
		check(m.Name, m.Unit)
		if l := layers[i]; m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better {
			t.Errorf("per-layer %d is %+v, the tables say %+v", i, m, l)
		}
	}
	if len(endToEnd) != 14 {
		t.Errorf("%d end-to-end metrics in the tables, want the issue's thirteen and batch_steady_ms", len(endToEnd))
	}
}

// TestQuickSmoke runs every workload at smoke size, untraced and traced,
// and checks that the last line carries every declared name exactly once
// with a finite value and its unit.
func TestQuickSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range f.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(options{Workload: w.Name, Seed: 7, Seconds: 0.5, Trace: traced, Quick: true, DataDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			var line struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(res.lastLine()), &line); err != nil {
				t.Fatal(err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
				t.Errorf("%s: last line lacks a key", w.Name)
			}
			want := map[string]string{}
			if traced {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for n, u := range want {
				v, ok := line.Metrics[n]
				if !ok {
					t.Errorf("%s traced=%v: %s missing", w.Name, traced, n)
					continue
				}
				if v.Unit != u || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v %q, want a finite value in %q", w.Name, traced, n, v.Value, v.Unit, u)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want above zero", w.Name, n, v.Value)
				}
			}
		}
	}
}

// TestQuartileSpread pins the spread to Python's
// statistics.quantiles(xs, n=4): for 1..10 the quartiles are 2.75 and
// 8.25, the median 5.5.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		newVals []float64
		want    string
	}{
		{[]float64{100, 100, 101, 99, 100}, "unchanged"},
		{[]float64{120, 121, 119, 120, 120}, "regressed"},
		{[]float64{80, 81, 79, 80, 80}, "improved"},
		{[]float64{70, 130, 100, 60, 140}, "unresolved"},
	}
	for _, c := range cases {
		if got := compareRow(io.Discard, "w", lower, base, c.newVals); got != c.want {
			t.Errorf("compareRow(%v) = %q, want %q", c.newVals, got, c.want)
		}
	}
}
