package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stm"
	"repro/internal/workloads"
)

func smallOpts() Opts {
	return Opts{
		Mode:      Simulated,
		Size:      workloads.Small,
		Threads:   []int{1, 4},
		Workloads: []string{"jfilesync", "weka"},
	}
}

func TestFigure9SmokeAndShape(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure9(&buf, smallOpts()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 9", "jfilesync", "weka", "average", "sequence", "write-set"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// 2 workloads × 2 detectors + 2 average rows + 2 header-ish lines.
	if lines := strings.Count(out, "\n"); lines < 8 {
		t.Errorf("too few lines:\n%s", out)
	}
}

func TestFigure10Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure10(&buf, smallOpts()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "retries per transaction") {
		t.Errorf("output: %s", buf.String())
	}
}

func TestFigure11Smoke(t *testing.T) {
	var buf bytes.Buffer
	opts := smallOpts()
	opts.Workloads = []string{"jfilesync"}
	if err := Figure11(&buf, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "abstraction") || !strings.Contains(out, "no-abstraction") {
		t.Errorf("output: %s", out)
	}
}

func TestMeasureSequenceBeatsWriteSet(t *testing.T) {
	w, err := workloads.ByName("jfilesync")
	if err != nil {
		t.Fatal(err)
	}
	o := Opts{Mode: Simulated, Size: workloads.Small}
	seq, err := Measure(w, Seq, 4, o)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := Measure(w, WS, 4, o)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Speedup <= ws.Speedup {
		t.Fatalf("sequence %v must beat write-set %v", seq.Speedup, ws.Speedup)
	}
	if ws.Speedup >= 1 {
		t.Fatalf("write-set at 4 threads must stay below 1x, got %v", ws.Speedup)
	}
	if seq.RetryRatio > ws.RetryRatio {
		t.Fatalf("sequence retries %v must not exceed write-set %v", seq.RetryRatio, ws.RetryRatio)
	}
}

func TestMissRatesAbstractionNoWorse(t *testing.T) {
	w, err := workloads.ByName("jfilesync")
	if err != nil {
		t.Fatal(err)
	}
	withAbs, withoutAbs, err := MissRates(w, 4, Opts{Mode: Simulated, Size: workloads.Production})
	if err != nil {
		t.Fatal(err)
	}
	if withAbs > withoutAbs {
		t.Fatalf("abstraction must not increase misses: %v vs %v", withAbs, withoutAbs)
	}
	if withoutAbs == 0 {
		t.Fatalf("production inputs must miss without abstraction (deeper recursion than training)")
	}
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	Table5(&buf)
	out := buf.String()
	for _, w := range workloads.All() {
		if !strings.Contains(out, w.Name) || !strings.Contains(out, w.Version) {
			t.Errorf("Table 5 missing %s", w.Name)
		}
	}
	buf.Reset()
	Table6(&buf)
	out = buf.String()
	if !strings.Contains(out, "training data") || !strings.Contains(out, "production data") {
		t.Errorf("Table 6 header missing: %s", out)
	}
	for _, w := range workloads.All() {
		if !strings.Contains(out, w.TrainingInput) {
			t.Errorf("Table 6 missing input for %s", w.Name)
		}
	}
}

func TestTrainingSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := TrainingSummary(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cache entries=") {
		t.Errorf("summary: %s", buf.String())
	}
}

func TestUnknownWorkloadErrors(t *testing.T) {
	o := Opts{Workloads: []string{"nope"}}
	var buf bytes.Buffer
	if err := Figure9(&buf, o); err == nil {
		t.Fatalf("unknown workload must error")
	}
}

func TestWallClockModeSmoke(t *testing.T) {
	w, err := workloads.ByName("pmd")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Measure(w, Seq, 2, Opts{Mode: WallClock, Size: workloads.Small, ProdRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 0 {
		t.Fatalf("wall-clock speedup must be positive, got %v", res.Speedup)
	}
}

func TestModeAndDetectionStrings(t *testing.T) {
	if Simulated.String() != "simulated" || WallClock.String() != "wall-clock" {
		t.Errorf("mode strings wrong")
	}
	if Seq.String() != "sequence" || WS.String() != "write-set" {
		t.Errorf("detection strings wrong")
	}
}

func TestTimelineSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Timeline(&buf, "jfilesync", 4, Opts{Size: workloads.Small}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Timeline: jfilesync", "makespan=", "attempts"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if err := Timeline(&buf, "nope", 4, Opts{}); err == nil {
		t.Errorf("unknown workload must error")
	}
	// The synthetic workload resolves here as it does under -workloads.
	buf.Reset()
	if err := Timeline(&buf, workloads.HeavyName, 4, Opts{Size: workloads.Small, OpsPerTxn: 8}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Timeline: "+workloads.HeavyName) {
		t.Errorf("heavy timeline:\n%s", buf.String())
	}
}

func TestMachineOverride(t *testing.T) {
	w, err := workloads.ByName("jfilesync")
	if err != nil {
		t.Fatal(err)
	}
	base := Opts{Mode: Simulated, Size: workloads.Small}
	wide := base
	wide.Machine = &stm.Machine{Cores: 16, SMTBonus: 0.25}
	capped, err := Measure(w, Seq, 8, base)
	if err != nil {
		t.Fatal(err)
	}
	uncapped, err := Measure(w, Seq, 8, wide)
	if err != nil {
		t.Fatal(err)
	}
	if uncapped.Speedup <= capped.Speedup {
		t.Fatalf("16-core machine must beat the 4-core testbed: %v vs %v",
			uncapped.Speedup, capped.Speedup)
	}

	// Figure 11's path and the timeline honor the override too. A one-core
	// machine runs one transaction at a time, so no conflict query is ever
	// made and the miss rate pmd shows without abstraction drops to zero;
	// the timeline's makespan follows the core count.
	pmd, err := workloads.ByName("pmd")
	if err != nil {
		t.Fatal(err)
	}
	single := base
	single.Machine = &stm.Machine{Cores: 1}
	if _, without, err := MissRates(pmd, 8, base); err != nil || without == 0 {
		t.Fatalf("pmd without abstraction on the testbed: miss rate %v, err %v", without, err)
	}
	if _, without, err := MissRates(pmd, 8, single); err != nil || without != 0 {
		t.Fatalf("pmd on one core: miss rate %v, err %v; the machine override was dropped", without, err)
	}
	var narrow, broad bytes.Buffer
	if err := Timeline(&narrow, "jfilesync", 8, base); err != nil {
		t.Fatal(err)
	}
	if err := Timeline(&broad, "jfilesync", 8, wide); err != nil {
		t.Fatal(err)
	}
	if narrow.String() == broad.String() {
		t.Fatalf("timeline ignores the machine override:\n%s", narrow.String())
	}
}
