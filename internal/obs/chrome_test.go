package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

// goldenEvents is a hand-built timeline covering every export shape:
// spans on two worker lanes, an abort with full attribution, cache
// instants, a backoff span, a spec rejection, and an
// event from an unknown worker.
func goldenEvents() []Event {
	return []Event{
		{Type: EvTask, When: 1000, Dur: 9000, Worker: 0, Task: 1, Attempt: 1},
		{Type: EvTxBegin, When: 1100, Worker: 0, Task: 1, Attempt: 1},
		{Type: EvTxRun, When: 1200, Dur: 3000, Worker: 0, Task: 1, Attempt: 1},
		{Type: EvTxValidate, When: 4300, Dur: 700, Worker: 0, Task: 1, Attempt: 1},
		{Type: EvTxCommit, When: 5100, Dur: 400, Worker: 0, Task: 1, Attempt: 1},
		{Type: EvTask, When: 900, Dur: 12000, Worker: 1, Task: 2, Attempt: 2},
		{Type: EvCacheMiss, When: 2100, Worker: 1, Task: 2, Attempt: 1, Loc: "work"},
		{Type: EvCacheFallback, When: 2200, Worker: 1, Task: 2, Attempt: 1, Loc: "work"},
		{Type: EvTxAbort, When: 2400, Worker: 1, Task: 2, Attempt: 1,
			Reason: "same-read", Loc: "work", Detail: "[num.add(1) num.load] vs [num.add(2)]"},
		{Type: EvTxBackoff, When: 2500, Dur: 800, Worker: 1, Task: 2, Attempt: 1},
		{Type: EvCacheHit, When: 6000, Worker: -1, Task: 3},
		{Type: EvSpecRejected, When: 8000, Worker: -1, Detail: "spec checksum mismatch"},
	}
}

func TestWriteChromeJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeJSON(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "chrome.golden.json")
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
		t.Fatalf("export drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeJSONWellFormed checks the structural invariants Perfetto
// relies on: valid JSON, a traceEvents array, metadata naming every
// lane, spans as X events with durations, instants as i events.
func TestChromeJSONWellFormed(t *testing.T) {
	tr := NewTrace(64)
	ctx := Ctx{T: tr, Worker: 0, Task: 1, Attempt: 1}
	start := ctx.Now()
	ctx.Instant(EvTxBegin)
	ctx.Cache(EvCacheMiss, "loc", "")
	ctx.Abort("commute", "loc", "[a] vs [b]")
	ctx.End(EvTask, start)

	var buf bytes.Buffer
	if err := tr.WriteChromeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var spans, instants, meta int
	for _, e := range out.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
			if e["dur"] == nil {
				t.Fatalf("span without dur: %v", e)
			}
		case "i":
			instants++
		case "M":
			meta++
		default:
			t.Fatalf("unexpected phase %v", e["ph"])
		}
	}
	if spans != 1 || instants != 3 || meta != 1 {
		t.Fatalf("spans=%d instants=%d meta=%d, want 1/3/1", spans, instants, meta)
	}
	for _, e := range out.TraceEvents {
		if e["name"] == "tx.abort" {
			args := e["args"].(map[string]any)
			if args["reason"] != "commute" || args["loc"] != "loc" {
				t.Fatalf("abort args lost attribution: %v", args)
			}
		}
	}
}

// TestChromeMarkerEvents checks marker types always export as instant
// ("i") records — even when a duration sneaks onto the event — and that
// a spec rejection gets global scope while cache queries stay on their
// thread lane.
func TestChromeMarkerEvents(t *testing.T) {
	events := []Event{
		{Type: EvSpecRejected, When: 400, Dur: 50, Worker: -1, Detail: "bad magic"},
		{Type: EvCacheHit, When: 500, Worker: 0, Task: 1, Loc: "work"},
		{Type: EvCacheMiss, When: 600, Worker: 0, Task: 1, Loc: "work"},
		{Type: EvCacheFallback, When: 700, Worker: 0, Task: 1, Loc: "work"},
	}
	var buf bytes.Buffer
	if err := writeChromeJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	wantScope := map[string]string{
		"spec.rejected":  "g",
		"cache.hit":      "t",
		"cache.miss":     "t",
		"cache.fallback": "t",
	}
	seen := 0
	for _, e := range out.TraceEvents {
		name, _ := e["name"].(string)
		scope, ok := wantScope[name]
		if !ok {
			continue
		}
		seen++
		if e["ph"] != "i" {
			t.Errorf("%s: ph = %v, want \"i\"", name, e["ph"])
		}
		if e["s"] != scope {
			t.Errorf("%s: scope = %v, want %q", name, e["s"], scope)
		}
		if e["dur"] != nil {
			t.Errorf("%s: instant must not carry dur, got %v", name, e["dur"])
		}
	}
	if seen != len(wantScope) {
		t.Fatalf("exported %d marker events, want %d", seen, len(wantScope))
	}
}
