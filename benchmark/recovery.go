package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/rec"
	"repro/internal/serve"
	"repro/internal/wal"
)

// fixtureBatches is what each tenant submits after the preload: with the
// default snapshot cadence of 1024 that leaves one snapshot and a
// journal suffix of about 256 records to replay.
const fixtureBatches = 1280

// closeState is what a tenant reported when the fixture's server closed.
type closeState struct {
	applied int64
	digest  string
}

// buildFixture submits the batches through a durable server and closes
// it, leaving the data dir a restart would find. It returns what each
// tenant reported at the end and the number of snapshot files.
func buildFixture(o options, shape serveShape, dir string) (map[string]closeState, float64, error) {
	h, err := startServer(shape, dir)
	if err != nil {
		return nil, 0, err
	}
	if err := h.preload(); err != nil {
		return nil, 0, err
	}
	perClient := fixtureBatches
	if o.Quick {
		perClient = 24
	}
	l := h.load(o.Seed, 0, perClient, nil)
	if l.failed > 0 {
		return nil, 0, fmt.Errorf("building the fixture: %d of %d batches failed", l.failed, l.attempted)
	}
	closed := map[string]closeState{}
	for t := 0; t < shape.tenants; t++ {
		var st serve.StateReply
		if err := h.getJSON("/statez?tenant="+tenantName(t), &st); err != nil {
			return nil, 0, err
		}
		closed[tenantName(t)] = closeState{applied: st.Applied, digest: st.Digest}
	}
	if err := h.stop(); err != nil {
		return nil, 0, err
	}
	// Snapshots run in the background; count the files that were
	// published by the time the journals closed.
	files, _ := filepath.Glob(filepath.Join(dir, "*", "snap-*.jsnap"))
	return closed, float64(len(files)), nil
}

func runRecovery(o options, res *result, scratch string) (*tracer, error) {
	shape := shapeOf(o.Workload, o.Quick)
	fixture := filepath.Join(scratch, "fixture")
	start := time.Now()
	closed, snapshots, err := buildFixture(o, shape, fixture)
	if err != nil {
		return nil, err
	}
	// The fixture takes ten seconds to build, so set-up happens once.
	res.set("setup_s", time.Since(start).Seconds())
	res.Samples["setup_s"] = 1

	// One recovery: an untimed fresh copy of the data dir, then the timed
	// RecoverTenants, then the check against the close-time values.
	var m0, m1 runtime.MemStats
	recoverOnce := func(n int, tr *tracer) (seconds float64, mallocs, bytes uint64) {
		dir := filepath.Join(scratch, fmt.Sprintf("copy-%d", n))
		if err := copyDir(fixture, dir); err != nil {
			res.fail(1, "copying the fixture: %v", err)
			return 0, 0, 0
		}
		defer os.RemoveAll(dir)
		srv := serve.NewServer(serveConfig(dir))
		runtime.ReadMemStats(&m0)
		t0 := tr.now()
		w0 := time.Now()
		names, err := srv.RecoverTenants()
		seconds = time.Since(w0).Seconds()
		tr.add("serve.recover", t0, tr.now(), -1, int64(n))
		runtime.ReadMemStats(&m1)
		res.Attempted++
		if err != nil || len(names) != shape.tenants {
			res.fail(1, "recovery %d: tenants %v, %v", n, names, err)
		} else {
			checkRecovered(res, srv, closed)
		}
		if err := srv.CloseJournals(); err != nil {
			res.fail(1, "recovery %d: closing journals: %v", n, err)
		}
		return seconds, m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}

	replayed, err := replayedRecords(fixture, shape)
	if err != nil {
		return nil, err
	}
	dur := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		dur /= 2
	}
	var secs []float64
	var mallocs, bytes uint64
	n := 0
	runtime.GC()
	for begin := time.Now(); len(secs) == 0 || time.Since(begin) < dur; n++ {
		s, m, b := recoverOnce(n, nil)
		secs = append(secs, s)
		mallocs += m
		bytes += b
	}
	txns := replayed * batchTasks * float64(len(secs))
	total := 0.0
	for _, s := range secs {
		total += s
	}
	res.set("recover_s", median(secs))
	res.set("batch_p50_ms", median(secs)*1e3)
	res.set("batch_steady_ms", fastest(secs)*1e3)
	res.set("txn_per_s", ratio(txns, total))
	res.set("allocs_per_txn", ratio(float64(mallocs), txns))
	res.set("alloc_kb_per_txn", ratio(float64(bytes)/1024, txns))
	res.set("bench.samples", float64(len(secs)))
	res.Samples["recoveries"] = len(secs)
	if !o.Trace {
		return nil, nil
	}

	tr := newTracer()
	var traced []float64
	for begin := time.Now(); len(traced) == 0 || time.Since(begin) < dur; n++ {
		s, _, _ := recoverOnce(n, tr)
		traced = append(traced, s)
	}
	res.set("bench.trace_overhead_share", 1-ratio(median(secs), median(traced)))
	res.set("bench.runs", float64(len(traced)))
	res.set("wal.snapshots", snapshots)
	res.set("recover.records_replayed", replayed)
	res.set("recover.us_per_record", ratio(median(secs)*1e6, replayed))
	if err := recoveryStages(res, tr, fixture, scratch); err != nil {
		return nil, err
	}
	res.Samples["spans"] = len(tr.spans)
	return tr, nil
}

// checkRecovered verifies applied count and digest per tenant against
// the values the fixture's server reported when it closed.
func checkRecovered(res *result, srv *serve.Server, closed map[string]closeState) {
	for tenant, want := range closed {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statez?tenant="+tenant, nil))
		var st serve.StateReply
		if err := json.NewDecoder(w.Body).Decode(&st); err != nil || w.Code != http.StatusOK {
			res.fail(1, "%s: /statez after recovery: status %d, %v", tenant, w.Code, err)
			continue
		}
		if st.Applied != want.applied || st.Digest != want.digest {
			res.fail(1, "%s: recovered applied %d digest %s, closed with %d %s",
				tenant, st.Applied, st.Digest, want.applied, want.digest)
		}
	}
}

// replayedRecords counts the journal records after the snapshot, summed
// over the tenants: what one recovery replays.
func replayedRecords(fixture string, shape serveShape) (float64, error) {
	n := 0.0
	for t := 0; t < shape.tenants; t++ {
		l, rcv, err := wal.Recover(filepath.Join(fixture, tenantName(t)), wal.Options{Policy: wal.FsyncNever})
		if err != nil {
			return 0, fmt.Errorf("reading the fixture journal: %w", err)
		}
		n += float64(len(rcv.Records))
		if err := l.Close(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// recoveryStages times the stages of recovering one tenant on a copy of
// the fixture, one call per layer: the journal scan, the snapshot's
// state decode, and per replayed record the decode, sequential apply and
// digest.
func recoveryStages(res *result, tr *tracer, fixture, scratch string) error {
	dir := filepath.Join(scratch, "stages")
	if err := copyDir(fixture, dir); err != nil {
		return fmt.Errorf("copying the fixture: %w", err)
	}
	defer os.RemoveAll(dir)
	root := tr.open("shadow.recover", -1, 0)
	var l *wal.Log
	var rcv *wal.Recovered
	var err error
	tr.timed("wal.recover", root, 0, func() {
		l, rcv, err = wal.Recover(filepath.Join(dir, tenantName(0)), wal.Options{Policy: wal.FsyncAlways})
	})
	if err != nil {
		return fmt.Errorf("shadow journal scan: %w", err)
	}
	defer l.Close()
	schema := serve.DefaultSchema()
	st := serve.InitialState(schema)
	if rcv.Snapshot != nil {
		tr.timed("rec.decode_state", root, 0, func() { st, err = rec.DecodeState(rcv.Snapshot.State) })
		if err != nil {
			return fmt.Errorf("shadow snapshot decode: %w", err)
		}
	}
	for _, r := range rcv.Records {
		var b serve.Batch
		tr.timed("json.decode", root, 0, func() { err = json.Unmarshal(r.Payload, &b) })
		if err != nil {
			return fmt.Errorf("shadow record decode: %w", err)
		}
		tr.timed("serve.apply_seq", root, 0, func() { st, err = serve.ApplySequential(st, schema, &b) })
		if err != nil {
			return fmt.Errorf("shadow record apply: %w", err)
		}
		tr.timed("rec.digest", root, 0, func() { _ = rec.Digest(st) })
	}
	tr.close(root)
	res.set("wal.recover_ms", median(tr.micros("wal.recover"))/1e3)
	res.set("serve.decode_us", median(tr.micros("json.decode")))
	res.set("serve.apply_seq_us", median(tr.micros("serve.apply_seq")))
	res.set("rec.digest_us", median(tr.micros("rec.digest")))

	return stateStages(res, tr, st, l, l.NextSeq()-1)
}

// copyDir copies the regular files and directories under src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
