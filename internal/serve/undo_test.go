package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rec"
	"repro/internal/wal"
)

// submitTo posts b to the handler in process for tenant.
func submitTo(t *testing.T, h http.Handler, tenant string, b *Batch) (int, BatchResult, ErrorReply) {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/submit?tenant="+tenant, bytes.NewReader(body)))
	var res BatchResult
	var er ErrorReply
	if rr.Code == http.StatusOK {
		err = json.Unmarshal(rr.Body.Bytes(), &res)
	} else {
		err = json.Unmarshal(rr.Body.Bytes(), &er)
	}
	if err != nil {
		t.Fatalf("decoding %d reply: %v", rr.Code, err)
	}
	return rr.Code, res, er
}

// statezOf reads a tenant's /statez in process.
func statezOf(t *testing.T, h http.Handler, tenant string) StateReply {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/statez?tenant="+tenant, nil))
	var st StateReply
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil || rr.Code != http.StatusOK {
		t.Fatalf("statez: %d %v", rr.Code, err)
	}
	return st
}

// dumpReplay dumps the tenant's flight recorder and returns the footer's
// digest and what replaying the dump's commits sequentially gives.
func dumpReplay(t *testing.T, srv *Server, tenant string) (footer, replayed string) {
	t.Helper()
	dir := t.TempDir()
	if _, err := srv.DumpFlight(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "flight-"+tenant+".jtrace"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := rec.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.ReplaySequential()
	if err != nil {
		t.Fatal(err)
	}
	return rec.FormatDigest(tr.Digest), rec.FormatDigest(rec.Digest(st))
}

// oneThread is the test runner at one worker: a batch's tasks run and
// commit in task order, so a failing task fails after the ones before it
// committed.
func oneThread() Config {
	cfg := Config{Runner: testRunner()}
	cfg.Runner.Threads = 1
	return cfg
}

func store(loc string, v int64) TaskSpec {
	return TaskSpec{Ops: []OpSpec{{Op: "store", Loc: loc, Delta: v}}}
}

// TestFlightDumpReplaysToTenantDigest: a tenant's flight dump replays,
// in commit-time order, to the digest its footer carries, which is the
// tenant's. Two batches whose tasks store to the same counters in
// opposite orders tell the orders apart: their commits must not
// interleave in the dump.
func TestFlightDumpReplaysToTenantDigest(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner()})
	h := srv.Handler()
	for _, b := range []*Batch{
		{ID: "b1", Tasks: []TaskSpec{store("c0", 1), store("c1", 1)}},
		{ID: "b2", Tasks: []TaskSpec{store("c1", 5), store("c0", 9)}},
	} {
		if code, _, er := submitTo(t, h, "flight", b); code != http.StatusOK {
			t.Fatalf("%s: %d %+v", b.ID, code, er)
		}
	}
	digest := statezOf(t, h, "flight").Digest
	footer, replayed := dumpReplay(t, srv, "flight")
	if footer != digest || replayed != digest {
		t.Fatalf("tenant digest %s, dump footer %s, dump replayed %s", digest, footer, replayed)
	}
}

// TestFailedBatchLeavesNoCommitInRecording: a batch whose first task
// commits and whose second fails is refused, and the flight recorder
// holds nothing of it: after one more batch, the dump replays to the
// tenant's digest.
func TestFailedBatchLeavesNoCommitInRecording(t *testing.T) {
	srv := NewServer(oneThread())
	h := srv.Handler()
	b := &Batch{ID: "pop-empty", Tasks: []TaskSpec{
		{Ops: []OpSpec{{Op: "add", Loc: "c0", Delta: 1}}},
		{Ops: []OpSpec{{Op: "pop", Loc: "stk"}}},
	}}
	if code, _, er := submitTo(t, h, "rewind", b); code != http.StatusUnprocessableEntity || er.Code != CodeBatchFailed {
		t.Fatalf("popping the empty stack: %d %+v", code, er)
	}
	after := &Batch{ID: "after", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "add", Loc: "c1", Delta: 2}}}}}
	if code, _, er := submitTo(t, h, "rewind", after); code != http.StatusOK {
		t.Fatalf("the batch after: %d %+v", code, er)
	}
	digest := statezOf(t, h, "rewind").Digest
	footer, replayed := dumpReplay(t, srv, "rewind")
	if footer != digest || replayed != digest {
		t.Fatalf("tenant digest %s, dump footer %s, dump replayed %s", digest, footer, replayed)
	}
}

// TestFailedBatchIsUndone: a batch that fails after some of its tasks
// committed leaves the tenant as if it never ran. /statez shows the same
// digest and values as before it, the store holds the same state, and
// the next batch's result equals the one a tenant that never saw the
// failed batch gives. Three failures: a task error, a deadline that fires
// after the first task committed, and a journal append that fails (the
// file system dies at the append; the next batch runs on the restarted
// tenant, since a failed append poisons the journal).
func TestFailedBatchIsUndone(t *testing.T) {
	base := &Batch{ID: "base", Tasks: []TaskSpec{
		{Ops: []OpSpec{{Op: "add", Loc: "c0", Delta: 5}, {Op: "put", Loc: "kv", Key: "k", Val: "v"}}},
		{Ops: []OpSpec{{Op: "push", Loc: "stk", Delta: 1}}},
	}}
	next := &Batch{ID: "next", Tasks: []TaskSpec{
		{Ops: []OpSpec{{Op: "add", Loc: "c0", Delta: 1}, {Op: "pop", Loc: "stk"}}},
		{Ops: []OpSpec{{Op: "put", Loc: "kv", Key: "k2", Val: "w"}, {Op: "add", Loc: "c1", Delta: 2}}},
	}}
	// The failed batches' first tasks commit a change to every kind of
	// location, a new map key among them.
	first := TaskSpec{Ops: []OpSpec{
		{Op: "add", Loc: "c0", Delta: 100}, {Op: "push", Loc: "stk", Delta: 9},
		{Op: "put", Loc: "kv", Key: "k", Val: "x"}, {Op: "put", Loc: "kv", Key: "new", Val: "y"},
	}}
	cases := []struct {
		name    string
		failing *Batch
		status  int
		code    string
		durable bool
	}{
		{"task-error", &Batch{ID: "fails", Tasks: []TaskSpec{first,
			{Ops: []OpSpec{{Op: "pop", Loc: "stk"}, {Op: "pop", Loc: "stk"}, {Op: "pop", Loc: "stk"}}},
		}}, http.StatusUnprocessableEntity, CodeBatchFailed, false},
		{"deadline", &Batch{ID: "slow", DeadlineMS: 50, Tasks: []TaskSpec{first,
			{Ops: []OpSpec{{Op: "work", Delta: 100_000_000}, {Op: "add", Loc: "c1", Delta: 1}}},
		}}, http.StatusGatewayTimeout, CodeDeadline, false},
		{"journal", &Batch{ID: "unjournaled", Tasks: []TaskSpec{first,
			{Ops: []OpSpec{{Op: "add", Loc: "c1", Delta: 1}}},
		}}, http.StatusServiceUnavailable, CodeJournal, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := oneThread()
			var m *memFS
			if c.durable {
				m = newMemFS([]*node{{dir: map[string]int{"data": 1}}, {dir: map[string]int{}}})
				cfg = crashConfig(wal.FsyncAlways, m)
				cfg.Runner.Threads = 1
			}
			srv := NewServer(cfg)
			h := srv.Handler()
			if code, _, er := submitTo(t, h, crashTenant, base); code != http.StatusOK {
				t.Fatalf("base: %d %+v", code, er)
			}
			before := statezOf(t, h, crashTenant)
			tn := srv.lookup(crashTenant)
			commits := func() (n int) {
				for _, ev := range tn.trace.Events() {
					if ev.Type == obs.EvTxCommit {
						n++
					}
				}
				return n
			}
			committed := commits()

			if m != nil {
				m.dieWhen(func(op fsOp) bool { return op.kind == opWrite && strings.HasPrefix(op.name, "wal-") })
			}
			if code, _, er := submitTo(t, h, crashTenant, c.failing); code != c.status || er.Code != c.code {
				t.Fatalf("failing batch: %d %+v, want %d %s", code, er, c.status, c.code)
			}
			if commits() == committed {
				t.Fatal("no task of the failing batch committed before it failed")
			}
			after := statezOf(t, h, crashTenant)
			if after.Digest != before.Digest || after.Applied != before.Applied || !equalValues(after.Values, before.Values) {
				t.Fatalf("statez after the failed batch %+v, before it %+v", after, before)
			}
			if got := rec.FormatDigest(rec.Digest(tn.store.State())); got != before.Digest {
				t.Fatalf("the store holds a state of digest %s after the failed batch, %s before it", got, before.Digest)
			}

			if m != nil {
				// Restart on what the dead file system kept.
				m.revive()
				srv = NewServer(crashConfig(wal.FsyncAlways, m))
				h = srv.Handler()
			}
			code, got, er := submitTo(t, h, crashTenant, next)
			if code != http.StatusOK {
				t.Fatalf("next batch: %d %+v", code, er)
			}

			twin := NewServer(oneThread()).Handler()
			for _, b := range []*Batch{base, next} {
				if code, _, er := submitTo(t, twin, crashTenant, b); code != http.StatusOK {
					t.Fatalf("twin %s: %d %+v", b.ID, code, er)
				}
			}
			want := statezOf(t, twin, crashTenant)
			if got.Digest != want.Digest || got.Applied != want.Applied {
				t.Fatalf("next batch after the failed one: digest %s applied %d; without the failed one: %s, %d",
					got.Digest, got.Applied, want.Digest, want.Applied)
			}
			if st := statezOf(t, h, crashTenant); !equalValues(st.Values, want.Values) {
				t.Fatalf("values after the next batch %v, without the failed one %v", st.Values, want.Values)
			}
		})
	}
}

func equalValues(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
