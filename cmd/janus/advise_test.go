package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/state"
	"repro/internal/workloads"
)

// traceOf profiles a workload's training tasks.
func traceOf(t *testing.T, name string) *Report {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := profile(w)
	if err != nil {
		t.Fatal(err)
	}
	return Analyze(trace)
}

func findingFor(t *testing.T, r *Report, loc state.Loc) Finding {
	t.Helper()
	for _, f := range r.Findings {
		if f.Loc == loc {
			return f
		}
	}
	t.Fatalf("no finding for %q; findings: %+v", loc, r.Findings)
	return Finding{}
}

// TestAdvisorRediscoversHandWrittenSpecs checks the headline property: the
// advisor's classification of the benchmark locations matches Table 5 and
// the hand-written relaxation specifications of internal/workloads.
func TestAdvisorRediscoversHandWrittenSpecs(t *testing.T) {
	// JFileSync: identity stacks, shared-as-local scratch URIs, read-only
	// cancellation flag.
	jfs := traceOf(t, "jfilesync")
	if f := findingFor(t, jfs, "monitor.itemsStarted"); f.Pattern != PatternIdentity {
		t.Errorf("itemsStarted = %v, want identity", f.Pattern)
	}
	if f := findingFor(t, jfs, "monitor.itemsWeight"); f.Pattern != PatternIdentity {
		t.Errorf("itemsWeight = %v, want identity", f.Pattern)
	}
	src := findingFor(t, jfs, "monitor.rootUriSrc")
	if src.Pattern != PatternSharedAsLocal || !src.SuggestWAW {
		t.Errorf("rootUriSrc = %v (waw=%v), want shared-as-local + WAW", src.Pattern, src.SuggestWAW)
	}
	if f := findingFor(t, jfs, "progress.canceled"); f.Pattern != PatternReadOnly {
		t.Errorf("canceled = %v, want read-only", f.Pattern)
	}
	// The safe suggestion matches the hand-written spec: WAW on both
	// scratch URI fields, nothing else.
	safe := jfs.SafeRelaxations()
	hand, err := workloads.ByName("jfilesync")
	if err != nil {
		t.Fatal(err)
	}
	for loc := range hand.Relaxations.WAW {
		if !safe.TolerateWAW(loc) {
			t.Errorf("advisor missed hand-written WAW on %s", loc)
		}
	}

	// PMD: shared-as-local context fields, reduction counters.
	pmd := traceOf(t, "pmd")
	if f := findingFor(t, pmd, "ctx.sourceCodeFilename"); !f.SuggestWAW {
		t.Errorf("sourceCodeFilename: want WAW suggestion, got %+v", f)
	}
	if f := findingFor(t, pmd, "metrics.analyzed"); f.Pattern != PatternReduction {
		t.Errorf("analyzed = %v, want reduction", f.Pattern)
	}

	// Weka: equal writes on the shared color register... the register is
	// written with several values per task, so it classifies as
	// shared-as-local (reads follow own writes) — also safe to relax.
	weka := traceOf(t, "weka")
	reg := findingFor(t, weka, "graphics.color")
	if !reg.SuggestWAW && reg.Pattern != PatternEqualWrites {
		t.Errorf("graphics.color = %+v; want shared-as-local/equal-writes", reg)
	}
}

// TestAdvisorFindsSpuriousReads checks the Figure 3 maxColor shape.
func TestAdvisorFindsSpuriousReads(t *testing.T) {
	jg := traceOf(t, "jgrapht1")
	max := findingFor(t, jg, "maxColor")
	if max.Pattern != PatternSpuriousReads || !max.CandidateRAW {
		t.Errorf("maxColor = %+v; want spurious-reads + RAW candidate", max)
	}
	// Candidates are excluded from the safe spec.
	if jg.SafeRelaxations().TolerateRAW("maxColor") {
		t.Errorf("RAW candidate must not be in the safe spec")
	}
	// usedColors: the scratch pad is cleared by every task before any
	// other access — both tolerances are safe.
	used := findingFor(t, jg, "usedColors")
	if used.Pattern != PatternSharedAsLocal || !used.SuggestWAW || !used.SuggestRAW {
		t.Errorf("usedColors = %+v; want shared-as-local + safe RAW/WAW", used)
	}
	if !jg.SafeRelaxations().TolerateRAW("usedColors") || !jg.SafeRelaxations().TolerateWAW("usedColors") {
		t.Errorf("usedColors tolerances must be in the safe spec")
	}
}

func TestRenderMentionsEveryFinding(t *testing.T) {
	r := traceOf(t, "jfilesync")
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, f := range r.Findings {
		if !strings.Contains(out, string(f.Loc)) {
			t.Errorf("render missing %s", f.Loc)
		}
	}
	if !strings.Contains(out, "tolerate WAW (safe)") {
		t.Errorf("render missing WAW suggestion:\n%s", out)
	}
}

func TestPatternStrings(t *testing.T) {
	want := map[Pattern]string{
		PatternUnknown: "unclassified", PatternReadOnly: "read-only",
		PatternReduction: "reduction", PatternIdentity: "identity",
		PatternSharedAsLocal: "shared-as-local", PatternEqualWrites: "equal-writes",
		PatternSpuriousReads: "spurious-reads",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("String(%d) = %q, want %q", p, p.String(), s)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	r := Analyze(nil)
	if len(r.Findings) != 0 {
		t.Errorf("empty trace must have no findings")
	}
	if waw := r.SafeRelaxations(); waw == nil {
		t.Errorf("empty report must still build a spec")
	}
}
