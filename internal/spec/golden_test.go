// Training seen from outside the package, through the API that `janus
// train` and core.Engine call: Mine partitions a sequential trace, and
// Train turns payloads into the spec whose contents the golden file pins.

package spec_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/spec"
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
		for _, mode := range []spec.Mode{spec.Abstract, spec.Concrete} {
			fmt.Fprintf(&buf, "== %s abstraction=%v\n", w.Name, mode == spec.Abstract)
			merged := spec.New(mode, false)
			for i, tasks := range w.TrainingPayloads() {
				c, rep, err := spec.Train(w.NewState(), tasks, mode)
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
