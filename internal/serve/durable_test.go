package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	janus "repro"
	"repro/internal/fsio"
	"repro/internal/rec"
	"repro/internal/stm"
	"repro/internal/wal"
)

// durableCfg is the base durable-server config for tests: fsync=always
// (the strictest policy, and the one the acceptance soak requires) with
// snapshots off unless a test turns them on.
func durableCfg(dir string) Config {
	return Config{Runner: testRunner(), DataDir: dir, Fsync: wal.FsyncAlways, SnapshotEvery: -1}
}

// mixedBatch builds a deterministic batch touching a counter, the kv
// map, and the stack — enough state variety that digest comparisons
// mean something.
func mixedBatch(id string, n int64) *Batch {
	return &Batch{ID: id, Tasks: []TaskSpec{
		{Ops: []OpSpec{{Op: "add", Loc: "c0", Delta: n}}},
		{Ops: []OpSpec{
			{Op: "put", Loc: "kv", Key: fmt.Sprintf("k%d", n%8), Val: id},
			{Op: "push", Loc: "stk", Delta: n},
		}},
	}}
}

// shutdown drains, closes journals, and closes the test server — the
// planned-shutdown path a durable server takes.
func shutdown(t *testing.T, srv *Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := srv.CloseJournals(); err != nil {
		t.Fatalf("closing journals: %v", err)
	}
	ts.Close()
}

// oracleReplay replays batch specs in journal order from the initial
// state and returns the digest the server must report.
func oracleReplay(t *testing.T, sch Schema, specs map[string]*Batch, ids []string) string {
	t.Helper()
	st := InitialState(sch)
	for _, id := range ids {
		b, ok := specs[id]
		if !ok {
			t.Fatalf("journal holds id %q no client ever submitted", id)
		}
		next, err := ApplySequential(st, sch, b)
		if err != nil {
			t.Fatalf("oracle replay of %q: %v", id, err)
		}
		st = next
	}
	return rec.FormatDigest(rec.Digest(st))
}

// TestDurableRestartExactlyOnce is the tentpole round trip: acked
// batches survive a restart byte-for-byte (digest-verified), the
// exactly-once seen index survives with them, and a duplicate submitted
// after the restart is refused with the original verdict.
func TestDurableRestartExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	specs := map[string]*Batch{}

	srv := NewServer(durableCfg(dir))
	ts := httptest.NewServer(srv.Handler())
	c := ts.Client()

	type verdict struct {
		digest  string
		applied int64
	}
	verdicts := map[string]verdict{}
	for _, tenant := range []string{"alpha", "beta"} {
		for i := int64(1); i <= 5; i++ {
			id := fmt.Sprintf("%s-b%d", tenant, i)
			b := mixedBatch(id, i*7)
			specs[tenant+"/"+id] = b
			var res BatchResult
			if code, _ := postBatch(t, c, ts.URL, tenant, b, &res); code != http.StatusOK {
				t.Fatalf("submit %s: status %d", id, code)
			}
			verdicts[tenant+"/"+id] = verdict{res.Digest, res.Applied}
		}
	}

	// A pre-restart duplicate already carries the original verdict.
	var er ErrorReply
	if code, _ := postBatch(t, c, ts.URL, "alpha", specs["alpha/alpha-b3"], &er); code != http.StatusConflict {
		t.Fatalf("duplicate before restart: status %d", code)
	}
	v := verdicts["alpha/alpha-b3"]
	if er.Code != CodeDuplicate || er.Applied != v.applied || er.Digest != v.digest {
		t.Fatalf("409 verdict %+v, want applied=%d digest=%s", er, v.applied, v.digest)
	}

	var before StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=alpha", &before)
	shutdown(t, srv, ts)

	// Restart on the same data dir: eager boot recovery finds both
	// tenants and proves their journals.
	srv2 := NewServer(durableCfg(dir))
	names, err := srv2.RecoverTenants()
	if err != nil {
		t.Fatalf("boot recovery: %v", err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("recovered tenants %v, want [alpha beta]", names)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer shutdown(t, srv2, ts2)
	c2 := ts2.Client()

	var after StateReply
	getJSON(t, c2, ts2.URL+"/statez?tenant=alpha", &after)
	if after.Digest != before.Digest || after.Applied != before.Applied {
		t.Fatalf("restart changed alpha: %+v -> %+v", before, after)
	}

	// The journal listing survives in order and replays to the digest.
	var j JournalReply
	getJSON(t, c2, ts2.URL+"/journalz?tenant=alpha", &j)
	if len(j.IDs) != 5 {
		t.Fatalf("journal ids %v", j.IDs)
	}
	prefixed := make([]string, len(j.IDs))
	for i, id := range j.IDs {
		prefixed[i] = "alpha/" + id
	}
	if got := oracleReplay(t, srv2.cfg.Schema, specs, prefixed); got != after.Digest {
		t.Fatalf("oracle replay %s, server %s", got, after.Digest)
	}

	// Duplicates across the restart return the original verdict.
	for _, tenant := range []string{"alpha", "beta"} {
		id := fmt.Sprintf("%s-b2", tenant)
		var er ErrorReply
		code, _ := postBatch(t, c2, ts2.URL, tenant, specs[tenant+"/"+id], &er)
		v := verdicts[tenant+"/"+id]
		if code != http.StatusConflict || er.Code != CodeDuplicate || er.Applied != v.applied || er.Digest != v.digest {
			t.Fatalf("%s duplicate after restart: %d %+v, want verdict %+v", id, code, er, v)
		}
	}

	// And the tenant keeps serving: the next batch lands at applied+1.
	var res BatchResult
	nb := mixedBatch("alpha-b6", 99)
	specs["alpha/alpha-b6"] = nb
	if code, _ := postBatch(t, c2, ts2.URL, "alpha", nb, &res); code != http.StatusOK || res.Applied != 6 {
		t.Fatalf("post-restart submit: %d %+v", code, res)
	}

	var h HealthReply
	getJSON(t, c2, ts2.URL+"/healthz", &h)
	if th := h.Tenants["alpha"]; th.WalSeq != 6 || th.RecoveredTruncations != 0 {
		t.Fatalf("alpha health %+v, want wal_seq 6 and no truncations", th)
	}
}

// TestJournalzIsTheSeenIndex: /journalz and journal_len read the
// exactly-once index itself — the applied IDs in journal order, bounded
// by DedupWindow — so the listing and duplicate refusal cannot disagree,
// live or after a restart from snapshot plus suffix.
func TestJournalzIsTheSeenIndex(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.DedupWindow = 4
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	c := ts.Client()

	for i := int64(1); i <= 8; i++ {
		if code, _ := postBatch(t, c, ts.URL, "j", mixedBatch(fmt.Sprintf("j-%d", i), i), nil); code != http.StatusOK {
			t.Fatalf("submit %d: %d", i, code)
		}
		if i == 6 {
			if err := srv.lookup("j").writeSnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(c *http.Client, base, when string) {
		t.Helper()
		var j JournalReply
		getJSON(t, c, base+"/journalz?tenant=j", &j)
		if want := []string{"j-5", "j-6", "j-7", "j-8"}; !slices.Equal(j.IDs, want) || j.Applied != 8 {
			t.Fatalf("%s: /journalz = %+v, want ids %v at applied 8", when, j, want)
		}
		var h HealthReply
		getJSON(t, c, base+"/healthz", &h)
		if got := h.Tenants["j"].JournalLen; got != 4 {
			t.Fatalf("%s: journal_len = %d, want 4", when, got)
		}
		for i, id := range j.IDs {
			var er ErrorReply
			if code, _ := postBatch(t, c, base, "j", mixedBatch(id, 0), &er); code != http.StatusConflict || er.Applied != int64(5+i) {
				t.Fatalf("%s: listed id %s not refused with its verdict: %d %+v", when, id, code, er)
			}
		}
	}
	check(c, ts.URL, "live")
	shutdown(t, srv, ts)

	srv2 := NewServer(cfg)
	if _, err := srv2.RecoverTenants(); err != nil {
		t.Fatalf("boot recovery: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer shutdown(t, srv2, ts2)
	check(ts2.Client(), ts2.URL, "after restart")
}

// TestDurableSnapshotBoundsRecovery: snapshots publish in the
// background, truncate covered segments, and a restart recovers from
// snapshot + suffix to the identical digest.
func TestDurableSnapshotBoundsRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.SnapshotEvery = 4
	cfg.SegmentBytes = 512
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	c := ts.Client()

	for i := int64(1); i <= 11; i++ {
		if code, _ := postBatch(t, c, ts.URL, "snappy", mixedBatch(fmt.Sprintf("s-%d", i), i), nil); code != http.StatusOK {
			t.Fatalf("submit %d: %d", i, code)
		}
	}
	// Wait for the background snapshot to land.
	tn := srv.lookup("snappy")
	deadline := time.Now().Add(5 * time.Second)
	for tn.lastSnap.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no snapshot published")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var before StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=snappy", &before)
	shutdown(t, srv, ts)

	snaps, _ := filepath.Glob(filepath.Join(dir, "snappy", "snap-*.jsnap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot file on disk")
	}

	srv2 := NewServer(cfg)
	if _, err := srv2.RecoverTenants(); err != nil {
		t.Fatalf("boot recovery: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer shutdown(t, srv2, ts2)
	var after StateReply
	getJSON(t, ts2.Client(), ts2.URL+"/statez?tenant=snappy", &after)
	if after.Digest != before.Digest || after.Applied != 11 {
		t.Fatalf("snapshot recovery: %+v -> %+v", before, after)
	}
	// Exactly-once still holds for batches older than the snapshot (their
	// journal records may be truncated; the snapshot's seen table covers
	// them).
	var er ErrorReply
	if code, _ := postBatch(t, ts2.Client(), ts2.URL, "snappy", mixedBatch("s-1", 1), &er); code != http.StatusConflict || er.Applied != 1 {
		t.Fatalf("pre-snapshot duplicate: %d %+v", code, er)
	}
}

// TestDurableRecoveryEdgeCases walks the recovery matrix the issue
// calls out at the serving layer.
func TestDurableRecoveryEdgeCases(t *testing.T) {
	t.Run("EmptyDataDir", func(t *testing.T) {
		srv := NewServer(durableCfg(t.TempDir()))
		names, err := srv.RecoverTenants()
		if err != nil || len(names) != 0 {
			t.Fatalf("empty dir recovery: %v %v", names, err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer shutdown(t, srv, ts)
		var res BatchResult
		if code, _ := postBatch(t, ts.Client(), ts.URL, "fresh", mixedBatch("a", 1), &res); code != http.StatusOK {
			t.Fatalf("fresh durable submit: %d", code)
		}
	})

	t.Run("SnapshotWithoutJournal", func(t *testing.T) {
		dir := t.TempDir()
		srv := NewServer(durableCfg(dir))
		ts := httptest.NewServer(srv.Handler())
		c := ts.Client()
		for i := int64(1); i <= 5; i++ {
			postBatch(t, c, ts.URL, "t", mixedBatch(fmt.Sprintf("b-%d", i), i), nil)
		}
		var before StateReply
		getJSON(t, c, ts.URL+"/statez?tenant=t", &before)
		if err := srv.lookup("t").writeSnapshotNow(); err != nil {
			t.Fatal(err)
		}
		shutdown(t, srv, ts)
		segs, _ := filepath.Glob(filepath.Join(dir, "t", "wal-*.seg"))
		for _, s := range segs {
			os.Remove(s)
		}
		srv2 := NewServer(durableCfg(dir))
		if _, err := srv2.RecoverTenants(); err != nil {
			t.Fatalf("boot recovery: %v", err)
		}
		ts2 := httptest.NewServer(srv2.Handler())
		defer shutdown(t, srv2, ts2)
		var after StateReply
		getJSON(t, ts2.Client(), ts2.URL+"/statez?tenant=t", &after)
		if after.Digest != before.Digest || after.Applied != 5 {
			t.Fatalf("snapshot-only recovery: %+v", after)
		}
		var er ErrorReply
		if code, _ := postBatch(t, ts2.Client(), ts2.URL, "t", mixedBatch("b-2", 2), &er); code != http.StatusConflict {
			t.Fatalf("duplicate from snapshot seen-table: %d %+v", code, er)
		}
	})

	t.Run("TornFinalRecord", func(t *testing.T) {
		dir := t.TempDir()
		srv := NewServer(durableCfg(dir))
		ts := httptest.NewServer(srv.Handler())
		c := ts.Client()
		specs := map[string]*Batch{}
		for i := int64(1); i <= 4; i++ {
			id := fmt.Sprintf("b-%d", i)
			specs[id] = mixedBatch(id, i)
			postBatch(t, c, ts.URL, "t", specs[id], nil)
		}
		shutdown(t, srv, ts)
		segs, _ := filepath.Glob(filepath.Join(dir, "t", "wal-*.seg"))
		if len(segs) != 1 {
			t.Fatalf("segments: %v", segs)
		}
		info, _ := os.Stat(segs[0])
		if err := os.Truncate(segs[0], info.Size()-3); err != nil {
			t.Fatal(err)
		}

		srv2 := NewServer(durableCfg(dir))
		if _, err := srv2.RecoverTenants(); err != nil {
			t.Fatalf("boot recovery: %v", err)
		}
		ts2 := httptest.NewServer(srv2.Handler())
		defer shutdown(t, srv2, ts2)
		c2 := ts2.Client()
		var st StateReply
		getJSON(t, c2, ts2.URL+"/statez?tenant=t", &st)
		if st.Applied != 3 {
			t.Fatalf("torn tail: applied %d, want 3", st.Applied)
		}
		var h HealthReply
		getJSON(t, c2, ts2.URL+"/healthz", &h)
		if h.Tenants["t"].RecoveredTruncations != 1 {
			t.Fatalf("truncation not operator-visible: %+v", h.Tenants["t"])
		}
		var j JournalReply
		getJSON(t, c2, ts2.URL+"/journalz?tenant=t", &j)
		if got := oracleReplay(t, srv2.cfg.Schema, specs, j.IDs); got != st.Digest {
			t.Fatalf("post-repair digest: oracle %s, server %s", got, st.Digest)
		}
		// The torn batch was cut, so its ID is free again: resubmission
		// applies it (fresh, exactly once).
		var res BatchResult
		if code, _ := postBatch(t, c2, ts2.URL, "t", specs["b-4"], &res); code != http.StatusOK || res.Applied != 4 {
			t.Fatalf("resubmit of torn batch: %d %+v", code, res)
		}
	})

	t.Run("CRCFlipMidSegment", func(t *testing.T) {
		dir := t.TempDir()
		srv := NewServer(durableCfg(dir))
		ts := httptest.NewServer(srv.Handler())
		c := ts.Client()
		specs := map[string]*Batch{}
		for i := int64(1); i <= 6; i++ {
			id := fmt.Sprintf("b-%d", i)
			specs[id] = mixedBatch(id, i)
			postBatch(t, c, ts.URL, "t", specs[id], nil)
		}
		shutdown(t, srv, ts)
		segs, _ := filepath.Glob(filepath.Join(dir, "t", "wal-*.seg"))
		buf, err := os.ReadFile(segs[0])
		if err != nil {
			t.Fatal(err)
		}
		buf[len(buf)/2] ^= 0xff
		os.WriteFile(segs[0], buf, 0o644)

		srv2 := NewServer(durableCfg(dir))
		if _, err := srv2.RecoverTenants(); err != nil {
			t.Fatalf("boot recovery: %v", err)
		}
		ts2 := httptest.NewServer(srv2.Handler())
		defer shutdown(t, srv2, ts2)
		c2 := ts2.Client()
		var st StateReply
		getJSON(t, c2, ts2.URL+"/statez?tenant=t", &st)
		if st.Applied >= 6 || st.Applied < 1 {
			t.Fatalf("corrupt journal: applied %d, want a cut prefix", st.Applied)
		}
		var h HealthReply
		getJSON(t, c2, ts2.URL+"/healthz", &h)
		if h.Tenants["t"].RecoveredTruncations == 0 {
			t.Fatalf("corruption not counted: %+v", h.Tenants["t"])
		}
		var j JournalReply
		getJSON(t, c2, ts2.URL+"/journalz?tenant=t", &j)
		if int64(len(j.IDs)) != st.Applied {
			t.Fatalf("journal/applied mismatch: %d vs %d", len(j.IDs), st.Applied)
		}
		if got := oracleReplay(t, srv2.cfg.Schema, specs, j.IDs); got != st.Digest {
			t.Fatalf("post-repair digest: oracle %s, server %s", got, st.Digest)
		}
	})

	t.Run("SeqGapRefusesService", func(t *testing.T) {
		dir := t.TempDir()
		cfg := durableCfg(dir)
		cfg.SegmentBytes = 256 // force several segments
		srv := NewServer(cfg)
		ts := httptest.NewServer(srv.Handler())
		c := ts.Client()
		for i := int64(1); i <= 12; i++ {
			postBatch(t, c, ts.URL, "t", mixedBatch(fmt.Sprintf("b-%d", i), i), nil)
		}
		shutdown(t, srv, ts)
		segs, _ := filepath.Glob(filepath.Join(dir, "t", "wal-*.seg"))
		if len(segs) < 3 {
			t.Fatalf("need >=3 segments, got %d", len(segs))
		}
		os.Remove(segs[1]) // a hole no honest repair can bridge

		srv2 := NewServer(cfg)
		if _, err := srv2.RecoverTenants(); err == nil {
			t.Fatal("boot recovery accepted a journal with a hole")
		}
		ts2 := httptest.NewServer(srv2.Handler())
		defer ts2.Close()
		var er ErrorReply
		code, _ := postBatch(t, ts2.Client(), ts2.URL, "t", mixedBatch("new", 1), &er)
		if code != http.StatusInternalServerError || er.Code != CodeRecovery {
			t.Fatalf("submit to unrecoverable tenant: %d %+v", code, er)
		}
	})

}

// TestTenantNameValidation: names that cannot double as journal
// directory entries are rejected before any tenant (or directory) is
// created.
func TestTenantNameValidation(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(durableCfg(dir))
	ts := httptest.NewServer(srv.Handler())
	defer shutdown(t, srv, ts)
	c := ts.Client()
	// "tenant%20name" decodes to a space in the query — Go's HTTP server
	// would reject a raw space in the request line before our handler.
	for _, bad := range []string{"", "../escape", "a/b", `a\b`, ".hidden", "x..y", "tenant%20name"} {
		var er ErrorReply
		code, _ := postBatch(t, c, ts.URL, bad, mixedBatch("a", 1), &er)
		if code != http.StatusBadRequest || er.Code != CodeBadRequest {
			t.Fatalf("name %q: %d %+v, want 400", bad, code, er)
		}
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 0 {
		t.Fatalf("rejected names created directories: %v", entries)
	}
	if code, _ := postBatch(t, c, ts.URL, "ok-name_1.x", mixedBatch("a", 1), nil); code != http.StatusOK {
		t.Fatalf("valid name rejected: %d", code)
	}
}

// TestDedupWindowRetention: the exactly-once index is bounded by
// Config.DedupWindow. IDs inside the window are refused with their
// original verdict (including across restarts); IDs that aged out
// re-apply as new batches — the documented retention trade that keeps
// the index and every snapshot finite.
func TestDedupWindowRetention(t *testing.T) {
	dir := t.TempDir()
	cfg := durableCfg(dir)
	cfg.DedupWindow = 3
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	c := ts.Client()

	for i := int64(1); i <= 5; i++ {
		if code, _ := postBatch(t, c, ts.URL, "win", mixedBatch(fmt.Sprintf("w-%d", i), i), nil); code != http.StatusOK {
			t.Fatalf("submit %d: %d", i, code)
		}
	}
	var er ErrorReply
	if code, _ := postBatch(t, c, ts.URL, "win", mixedBatch("w-5", 5), &er); code != http.StatusConflict || er.Applied != 5 {
		t.Fatalf("in-window duplicate: %d %+v", code, er)
	}
	// w-1 aged past the 3-entry window: it re-applies at seq 6.
	var res BatchResult
	if code, _ := postBatch(t, c, ts.URL, "win", mixedBatch("w-1", 1), &res); code != http.StatusOK || res.Applied != 6 {
		t.Fatalf("evicted ID re-apply: %d %+v", code, res)
	}
	shutdown(t, srv, ts)

	// A restart rebuilds the identical bounded index: window now holds
	// w-4 (seq 4), w-5 (seq 5), and the re-applied w-1 (seq 6).
	srv2 := NewServer(cfg)
	if _, err := srv2.RecoverTenants(); err != nil {
		t.Fatalf("boot recovery: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer shutdown(t, srv2, ts2)
	c2 := ts2.Client()
	if code, _ := postBatch(t, c2, ts2.URL, "win", mixedBatch("w-5", 5), &er); code != http.StatusConflict || er.Applied != 5 {
		t.Fatalf("in-window duplicate after restart: %d %+v", code, er)
	}
	// A re-applied ID answers with its NEWEST verdict: eviction of the
	// seq-1 occurrence must not have deleted the seq-6 entry.
	if code, _ := postBatch(t, c2, ts2.URL, "win", mixedBatch("w-1", 1), &er); code != http.StatusConflict || er.Applied != 6 {
		t.Fatalf("re-applied ID verdict after restart: %d %+v", code, er)
	}
	if code, _ := postBatch(t, c2, ts2.URL, "win", mixedBatch("w-2", 2), &res); code != http.StatusOK {
		t.Fatalf("evicted ID after restart should re-apply: %d", code)
	}
}

// TestFormat1JournalRefusedUntouched: a segment or snapshot written in
// format 1 carries the digest this build no longer computes. The tenant
// is refused with the typed fsio.BadFormat — not replayed into a digest
// mismatch, not repaired as if it were crash damage, not poisoned — and
// its directory is left byte for byte as it was.
func TestFormat1JournalRefusedUntouched(t *testing.T) {
	for name, file := range map[string]string{"segment": "wal-*.seg", "snapshot": "snap-*.jsnap"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv := NewServer(durableCfg(dir))
			ts := httptest.NewServer(srv.Handler())
			for i := int64(1); i <= 4; i++ {
				postBatch(t, ts.Client(), ts.URL, "old", mixedBatch(fmt.Sprintf("o-%d", i), i), nil)
			}
			if err := srv.lookup("old").writeSnapshotNow(); err != nil {
				t.Fatal(err)
			}
			shutdown(t, srv, ts)

			paths, _ := filepath.Glob(filepath.Join(dir, "old", file))
			if len(paths) != 1 {
				t.Fatalf("want one %s, found %v", file, paths)
			}
			buf, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			buf[8] = 1 // the format byte follows the 8-byte magic
			if err := os.WriteFile(paths[0], buf, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirBytes(t, filepath.Join(dir, "old"))

			srv2 := NewServer(durableCfg(dir))
			_, err = srv2.RecoverTenants()
			var fe *fsio.FrameError
			if !errors.As(err, &fe) || fe.Reason != fsio.BadFormat || errors.Is(err, wal.ErrPoisoned) {
				t.Fatalf("recovery error = %v, want an fsio.BadFormat refusal", err)
			}
			if after := dirBytes(t, filepath.Join(dir, "old")); !reflect.DeepEqual(before, after) {
				t.Fatalf("refused tenant's directory was modified: %d files before, %d after", len(before), len(after))
			}
		})
	}
}

// dirBytes reads every file of dir.
func dirBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestRecoveryFailureCachedAndIsolated: a tenant whose journal cannot
// be recovered fails every submit with the same cached typed error —
// the journal is replayed (and fails) once, not per request — and a
// healthy tenant on the same server is unaffected.
func TestRecoveryFailureCachedAndIsolated(t *testing.T) {
	dir := t.TempDir()
	broken := filepath.Join(dir, "broken")
	if err := os.MkdirAll(broken, 0o755); err != nil {
		t.Fatal(err)
	}
	// A segment file with the wrong magic is unrecoverable by design
	// (not crash debris — refuse to guess).
	if err := os.WriteFile(filepath.Join(broken, "wal-0000000000000001.seg"), []byte("NOTJANUS garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(durableCfg(dir))
	ts := httptest.NewServer(srv.Handler())
	c := ts.Client()

	var er ErrorReply
	if code, _ := postBatch(t, c, ts.URL, "broken", mixedBatch("x-1", 1), &er); code != http.StatusInternalServerError || er.Code != CodeRecovery {
		t.Fatalf("broken tenant submit: %d %+v, want 500 %s", code, er, CodeRecovery)
	}
	// The verdict is cached: both calls return the identical error value
	// without re-running the (failing) replay.
	_, err1 := srv.tenantFor("broken")
	_, err2 := srv.tenantFor("broken")
	if err1 == nil || err1 != err2 {
		t.Fatalf("recovery failure not cached: %v vs %v", err1, err2)
	}
	// Other tenants serve normally alongside the broken one.
	if code, _ := postBatch(t, c, ts.URL, "healthy", mixedBatch("h-1", 1), nil); code != http.StatusOK {
		t.Fatalf("healthy tenant submit: %d", code)
	}
	shutdown(t, srv, ts)
}

// decodedReplayState is the state recovery's allocation pins replay on:
// a 1024-key map, encoded and decoded as recoverTenant decodes a
// snapshot.
func decodedReplayState(t *testing.T) *janus.State {
	t.Helper()
	st := InitialState(DefaultSchema())
	preload := &Batch{ID: "preload"}
	for i := 0; i < steadyKeys; i++ {
		preload.Tasks = append(preload.Tasks, TaskSpec{Ops: []OpSpec{{Op: "put", Loc: "kv", Key: fmt.Sprintf("k%05d", i), Val: "v000000000"}}})
	}
	tasks, err := takeFrame(DefaultSchema().index()).compile(preload)
	if err != nil {
		t.Fatal(err)
	}
	if err := stm.ApplySequential(st, tasks); err != nil {
		t.Fatal(err)
	}
	snap, err := rec.EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = rec.DecodeState(snap); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDecodedStateReplayAllocs pins what recovery's replay of a warm
// four-task batch allocates on a state rec.DecodeState returned, as
// recoverTenant replays a journal suffix on a decoded snapshot. A decoded
// relation owns its nodes, so the batch's four puts into the 1024-key map
// change them in place and allocate no trie node. What is left is the
// sequential executor and boxing: four gets' results and eight counter
// sums past the small-integer cache, 13 objects (30 when each put copied
// its path).
func TestDecodedStateReplayAllocs(t *testing.T) {
	st := decodedReplayState(t)
	idx := DefaultSchema().index()
	// The batches TestSteadyBatchAllocs acks, each compiled on a frame of
	// its own ahead of the measurement.
	const warm, runs = 100, 100
	batches := make([][]janus.Task, warm+runs+1)
	for n := range batches {
		tasks, err := takeFrame(idx).compile(servedBatch(n))
		if err != nil {
			t.Fatal(err)
		}
		batches[n] = tasks
	}
	n := 0
	apply := func() {
		if err := stm.ApplySequential(st, batches[n]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for n < warm {
		apply()
	}
	got := testing.AllocsPerRun(runs, apply)
	const pinned = 13
	if got > pinned {
		t.Fatalf("replaying a warm four-task batch on a decoded state allocates %.0f objects, want at most %d", got, pinned)
	}
	t.Logf("%.0f allocations per warm four-task batch replayed on a decoded state (pinned %d)", got, pinned)
}

// TestRecoveryRecordAllocs pins recoverTenant's per-record loop on the
// same batches and state: one frame parses each journal payload,
// compiles it and replays it with stm.ApplySequential. That is the
// parse's id, keys and values (13, TestParseBatchAllocs) plus the replay
// (13, TestDecodedStateReplayAllocs); the frame's Batch, slabs and task
// slots are reused from record to record.
func TestRecoveryRecordAllocs(t *testing.T) {
	st := decodedReplayState(t)
	const warm, runs = 100, 100
	payloads := make([][]byte, warm+runs+1)
	for n := range payloads {
		payloads[n] = appendBatch(nil, servedBatch(n))
	}
	f := takeFrame(DefaultSchema().index())
	n := 0
	replay := func() {
		b, err := f.parse(payloads[n])
		if err != nil {
			t.Fatal(err)
		}
		tasks, err := f.compile(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := stm.ApplySequential(st, tasks); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for n < warm {
		replay()
	}
	got := testing.AllocsPerRun(runs, replay)
	const pinned = 13 + 13
	if got > pinned {
		t.Fatalf("recovering a warm four-task journal record allocates %.0f objects, want at most %d", got, pinned)
	}
	t.Logf("%.0f allocations per warm four-task journal record recovered (pinned %d)", got, pinned)
}

// TestFrameReuseAcrossDeadlines: a batch whose deadline expires mid-run
// gives its frame back only once its run has returned, so the batches
// queued behind it, and those after it, parse and run on reused frames
// without reading one another's. Each acked batch is journaled once, as
// sent; the journal replays to every acked digest; a resubmit gets the
// original verdict; a restart recovers the same state. Run it under
// -race (make race) too: a frame released early is a data race there.
func TestFrameReuseAcrossDeadlines(t *testing.T) {
	dir := t.TempDir()
	srv := NewServer(durableCfg(dir))
	h := srv.Handler()
	post := func(b *Batch) *httptest.ResponseRecorder {
		body, err := json.Marshal(b)
		if err != nil {
			panic(err)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/submit?tenant=reuse", bytes.NewReader(body)))
		return rr
	}
	// quick(id, i) has 1 to 4 tasks of 1 to 3 ops, so a reused frame's
	// slabs are longer or shorter than the batch it parses next.
	quick := func(id string, i int) *Batch {
		b := &Batch{ID: id}
		for k := 0; k <= i%4; k++ {
			ts := TaskSpec{Ops: []OpSpec{{Op: "add", Loc: fmt.Sprintf("c%d", k), Delta: int64(i + k)}}}
			for j := 0; j < i%3; j++ {
				ts.Ops = append(ts.Ops, OpSpec{Op: "put", Loc: "kv", Key: fmt.Sprintf("k%d", (i+j)%5), Val: id})
			}
			b.Tasks = append(b.Tasks, ts)
		}
		return b
	}
	specs := map[string]*Batch{}
	acked := map[string]BatchResult{}
	for round := 0; round < 3; round++ {
		slow := &Batch{ID: fmt.Sprintf("slow-%d", round), DeadlineMS: 20}
		for i := 0; i < 4; i++ {
			slow.Tasks = append(slow.Tasks, TaskSpec{Ops: []OpSpec{{Op: "work", Delta: 30_000_000}, {Op: "push", Loc: "stk", Delta: 1}}})
		}
		slowReply := make(chan *httptest.ResponseRecorder)
		go func() { slowReply <- post(slow) }()
		// The quick batches queue on the gate behind the slow one.
		for tn := srv.lookup("reuse"); tn == nil || tn.inflight.Load() == 0; tn = srv.lookup("reuse") {
			time.Sleep(100 * time.Microsecond)
		}
		replies := make([]*httptest.ResponseRecorder, 6)
		var wg sync.WaitGroup
		for i := range replies {
			b := quick(fmt.Sprintf("q%d-%d", round, i), round*len(replies)+i)
			specs[b.ID] = b
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[i] = post(b)
			}()
		}
		wg.Wait()
		if rr := <-slowReply; rr.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d (%s), want 504", slow.ID, rr.Code, rr.Body)
		}
		for i, rr := range replies {
			var res BatchResult
			if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil || rr.Code != http.StatusOK {
				t.Fatalf("q%d-%d: status %d (%s)", round, i, rr.Code, rr.Body)
			}
			if id := fmt.Sprintf("q%d-%d", round, i); res.ID != id || res.Tasks != len(specs[id].Tasks) {
				t.Fatalf("%s acked as %+v", id, res)
			}
			acked[res.ID] = res
		}
	}

	// The journal holds each acked batch once, in the order it was
	// applied, and replays to each batch's acked digest and to the state.
	var j JournalReply
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/journalz?tenant=reuse", nil))
	if err := json.Unmarshal(rr.Body.Bytes(), &j); err != nil || len(j.IDs) != len(acked) {
		t.Fatalf("journal %v (%v), want the %d acked batches", j.IDs, err, len(acked))
	}
	st := InitialState(srv.cfg.Schema)
	for i, id := range j.IDs {
		res, ok := acked[id]
		if !ok || res.Applied != int64(i+1) {
			t.Fatalf("journal position %d holds %q, acked as %+v", i+1, id, res)
		}
		next, err := ApplySequential(st, srv.cfg.Schema, specs[id])
		if err != nil {
			t.Fatal(err)
		}
		st = next
		if got := rec.FormatDigest(rec.Digest(st)); got != res.Digest {
			t.Fatalf("%s: oracle digest %s, acked %s", id, got, res.Digest)
		}
	}
	want := rec.FormatDigest(rec.Digest(st))
	if got := statezOf(t, h, "reuse"); got.Digest != want {
		t.Fatalf("state digest %s, oracle %s", got.Digest, want)
	}
	for id, res := range acked {
		code, _, er := submitTo(t, h, "reuse", specs[id])
		if code != http.StatusConflict || er.Applied != res.Applied || er.Digest != res.Digest {
			t.Fatalf("resubmitted %s: %d %+v, want the verdict %+v", id, code, er, res)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.CloseJournals(); err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(durableCfg(dir))
	if _, err := srv2.RecoverTenants(); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer srv2.CloseJournals()
	if got := statezOf(t, srv2.Handler(), "reuse"); got.Digest != want || got.Applied != int64(len(acked)) {
		t.Fatalf("recovered %+v, want digest %s at %d", got, want, len(acked))
	}
}
