package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// compareFiles applies the bounds per (workload, metric) to two -out
// files and prints one row each. End-to-end rows use the untraced runs
// and decide the exit status; per-layer rows use the traced runs and
// only inform. It reports whether any end-to-end row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (regressed bool, err error) {
	oldRep, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	if a, b := oldRep.Fingerprint, newRep.Fingerprint; a.CPUModel != b.CPUModel || a.NumCPU != b.NumCPU || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: the two files come from different hosts or settings (%s ×%d %.0f s vs %s ×%d %.0f s)\n",
			a.CPUModel, a.NumCPU, a.Seconds, b.CPUModel, b.NumCPU, b.Seconds)
	}
	fmt.Fprintf(w, "%-17s %-34s %14s %14s %8s %8s  %s\n", "workload", "metric", "old median", "new median", "change", "spread", "verdict")
	for _, wl := range workloadNames() {
		for _, m := range endToEnd {
			if !m.on(wl) {
				continue
			}
			verdict := compareRow(w, wl, m, oldRep.values(wl, m.Name, false), newRep.values(wl, m.Name, false))
			regressed = regressed || verdict == "regressed"
		}
	}
	for _, wl := range workloadNames() {
		for _, m := range perLayer {
			if m.on(wl) {
				compareRow(w, wl, m, oldRep.values(wl, m.Name, true), newRep.values(wl, m.Name, true))
			}
		}
	}
	return regressed, nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return &rep, nil
}

// values collects one metric's value from every run of a workload,
// traced or untraced.
func (rep *report) values(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, r := range rep.Runs {
		if r.Workload == workload && r.Trace == traced {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareRow prints one row and returns its verdict. With a bound: the
// row is unresolved when either side's quartile spread is wider than the
// allowance, unless every new run reads better than every old one;
// otherwise regressed or improved when the medians differ by more than
// the allowance, else unchanged. Without a bound (per-layer) it reports
// the direction only.
func compareRow(w io.Writer, workload string, m metricDef, oldVals, newVals []float64) string {
	if len(oldVals) == 0 || len(newVals) == 0 {
		return ""
	}
	oldMed, newMed := median(oldVals), median(newVals)
	worse := newMed - oldMed
	if m.Better == "higher" {
		worse = -worse
	}
	allowance := m.Bound*math.Abs(oldMed) + m.Slack
	spread := max(quartileSpread(oldVals), quartileSpread(newVals))
	verdict := "unchanged"
	switch {
	case m.Bound == 0 && m.Slack == 0:
		if worse > 0 {
			verdict = "worse (no bound)"
		} else if worse < 0 {
			verdict = "better (no bound)"
		}
	case spread*math.Abs(oldMed) > allowance && !allBetter(m, oldVals, newVals):
		verdict = "unresolved"
	case worse > allowance:
		verdict = "regressed"
	case -worse > allowance:
		verdict = "improved"
	}
	fmt.Fprintf(w, "%-17s %-34s %14.4f %14.4f %+7.1f%% %7.1f%%  %s\n",
		workload, m.Name, oldMed, newMed, 100*ratio(newMed-oldMed, math.Abs(oldMed)), 100*spread, verdict)
	return verdict
}

// allBetter reports whether every new value reads better than every old
// one.
func allBetter(m metricDef, oldVals, newVals []float64) bool {
	for _, n := range newVals {
		for _, o := range oldVals {
			if (m.Better == "higher" && n <= o) || (m.Better == "lower" && n >= o) {
				return false
			}
		}
	}
	return true
}
