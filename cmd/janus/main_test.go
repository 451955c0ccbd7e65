package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	janus "repro"
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

// TestTrainOutLoadsIntoRunner is the deployment flow through the command:
// `janus train -out F` writes the spec, a runner loads as many entries as
// the command printed, a flipped, a cut and a foreign file are refused by
// a strict load with the reason that names each, and the flipped copy
// degrades a lenient one.
func TestTrainOutLoadsIntoRunner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jfilesync.spec")
	code, out, errOut := runCmd("train", "-workload", "jfilesync", "-out", path)
	if code != 0 {
		t.Fatalf("janus train -out: exit %d: %s", code, errOut)
	}
	var printed int
	if i := strings.Index(out, "commutativity specification ("); i < 0 {
		t.Fatalf("janus train printed no specification: %.200q", out)
	} else if _, err := fmt.Sscanf(out[i:], "commutativity specification (%d entries)", &printed); err != nil || printed == 0 {
		t.Fatalf("entry count: %d, %v", printed, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := janus.New(janus.Config{})
	if err := r.LoadSpec(bytes.NewReader(raw)); err != nil {
		t.Fatalf("LoadSpec(%s): %v", path, err)
	}
	if got := r.CacheStats().Entries; got != printed {
		t.Errorf("runner loaded %d entries, janus train printed %d", got, printed)
	}

	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xff
	// A caller outside the module tells the faults apart by the reason.
	for _, c := range []struct {
		name string
		raw  []byte
		want janus.FrameReason
	}{
		{"flipped", flipped, janus.FrameBadChecksum},
		{"cut", raw[:len(raw)/2], janus.FrameTorn},
		{"foreign", []byte("#!/bin/sh\necho not a spec\n"), janus.FrameBadMagic},
	} {
		var fe *janus.FrameError
		if err := janus.New(janus.Config{}).LoadSpecPolicy(bytes.NewReader(c.raw), janus.SpecStrict); !errors.As(err, &fe) || fe.Reason != c.want {
			t.Fatalf("strict load of a %s spec: %v, want a *janus.FrameError (%s)", c.name, err, c.want)
		}
	}
	lenient := janus.New(janus.Config{})
	if err := lenient.LoadSpecPolicy(bytes.NewReader(flipped), janus.SpecLenient); err != nil || !lenient.SpecRejected() {
		t.Fatalf("lenient load of a flipped spec: err=%v rejected=%v, want a degraded runner", err, lenient.SpecRejected())
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
