package train

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/seqabs"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// TestTrainedSpecGolden pins what training learns: for every workload at
// its training size, with abstraction on and off, the per-payload reports
// and the merged cache's dump, exactly as `janus train` prints them. A
// change to mining, proving or verification that moves any entry shows
// here as a diff.
func TestTrainedSpecGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, w := range workloads.All() {
		for _, mode := range []seqabs.Mode{seqabs.Abstract, seqabs.Concrete} {
			fmt.Fprintf(&buf, "== %s abstraction=%v\n", w.Name, mode == seqabs.Abstract)
			merged := cache.New(mode)
			for i, tasks := range w.TrainingPayloads() {
				c, rep, err := Train(w.NewState(), tasks, Options{Mode: mode})
				if err != nil {
					t.Fatalf("%s payload %d: %v", w.Name, i, err)
				}
				merged.Merge(c)
				fmt.Fprintf(&buf, "training run %d: %s\n", i+1, rep)
			}
			fmt.Fprintf(&buf, "commutativity specification (%d entries):\n%s", merged.Len(), merged.Dump())
		}
	}
	path := filepath.Join("testdata", "trained.golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("trained specification drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
