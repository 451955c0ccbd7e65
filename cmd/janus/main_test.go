package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runCmd runs one command line in process and returns its exit status,
// standard output and standard error.
func runCmd(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestTrainingCommands(t *testing.T) {
	for _, cmd := range []string{"train", "trace", "advise"} {
		code, out, errOut := runCmd(cmd, "-workload", "jgrapht2")
		if code != 0 {
			t.Fatalf("janus %s: exit %d: %s", cmd, code, errOut)
		}
		if !strings.HasPrefix(out, "benchmark: jgrapht2") {
			t.Errorf("janus %s printed %.80q, want a jgrapht2 report", cmd, out)
		}
	}
}

// TestRecordReplayRoundTrip records a chaos-perturbed profiled run and
// replays it: the replayed digests must match the recorded one.
func TestRecordReplayRoundTrip(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "janus.trace")
	code, out, errOut := runCmd("bench", "-json", "-chaos", "42", "-record", trace,
		"-workloads", "jfilesync", "-size", "small")
	if code != 0 {
		t.Fatalf("janus bench: exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, `"workload": "jfilesync"`) {
		t.Errorf("janus bench -json printed %.200q, want a jfilesync report", out)
	}
	code, out, errOut = runCmd("replay", "-verify-ops", trace)
	if code != 0 {
		t.Fatalf("janus replay: exit %d: %s%s", code, out, errOut)
	}
	for _, want := range []string{"sequential: ", "parallel: "} {
		if !strings.Contains(out, want) || !strings.Contains(out, "digest verified") {
			t.Errorf("janus replay printed %q, want %q with a verified digest", out, want)
		}
	}
}

// TestServeDrainsUnderLoadgen boots the service on a free port, drives it
// with loadgen, which verifies the exactly-once and digest contract, and
// drains it by cancelling its context.
func TestServeDrainsUnderLoadgen(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	logR, logW := io.Pipe()
	exit := make(chan int, 1)
	go func() {
		code := run(ctx, []string{"serve", "-addr", "127.0.0.1:0", "-flight-dir", t.TempDir()}, io.Discard, logW)
		logW.Close()
		exit <- code
	}()
	// Read the log as it is written: the bound address, then the rest.
	addr := make(chan string, 1)
	logDone := make(chan string, 1)
	go func() {
		var log strings.Builder
		sc := bufio.NewScanner(logR)
		for sc.Scan() {
			line := sc.Text()
			log.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		close(addr)
		logDone <- log.String()
	}()

	a, ok := <-addr
	if !ok {
		t.Fatalf("janus serve exited before listening: exit %d\n%s", <-exit, <-logDone)
	}
	code, out, errOut := runCmd("loadgen", "-url", "http://"+a,
		"-tenants", "2", "-clients", "2", "-batches", "3")
	if code != 0 {
		t.Errorf("janus loadgen: exit %d: %s%s", code, out, errOut)
	}
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("janus serve: exit %d after drain", code)
		}
	case <-time.After(time.Minute):
		t.Fatal("janus serve did not return after its context ended")
	}
	if log := <-logDone; !strings.Contains(log, "drained cleanly") {
		t.Errorf("janus serve log lacks the clean drain:\n%s", log)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nope"},
		{"train"},
		{"trace", "-max", "x", "-workload", "pmd"},
		{"bench", "-detector", "serial"},
		{"replay"},
	} {
		if code, _, errOut := runCmd(args...); code != 2 {
			t.Errorf("janus %q: exit %d, want 2 (%s)", args, code, errOut)
		}
	}
	if code, _, errOut := runCmd("train", "-workload", "nope"); code != 1 {
		t.Errorf("janus train -workload nope: exit %d, want 1 (%s)", code, errOut)
	}
}
