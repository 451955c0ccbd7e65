package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/wal"
)

// crashPlan schedules one simulated process death for the durability
// layer: at the visit-th time the journal reaches point, hook reports
// die=true and wal poisons the log — every later journal operation fails
// with wal.ErrCrashed and performs no I/O, the observable behavior of
// `kill -9` at that instant (bytes written before the point survive in
// the page cache; nothing after exists). Same plan, same traffic order,
// same death.
type crashPlan struct {
	point  string
	visit  int64 // 1-based count of point visits; 1 dies at the first
	visits atomic.Int64
	fired  atomic.Bool // a plan aimed past the run's traffic never fires
}

func (p *crashPlan) hook(point string) bool {
	if point != p.point {
		return false
	}
	if p.visits.Add(1) == p.visit {
		p.fired.Store(true)
		return true
	}
	return false
}

// crashPoints are every wal crash point, in protocol order.
var crashPoints = []string{
	wal.PointAppendBefore,
	wal.PointAppendAfter,
	wal.PointSnapshotMid,
	wal.PointSnapshotRenameBefore,
	wal.PointSnapshotRenameAfter,
	wal.PointTruncateBefore,
}

// TestCrashRecoverySoak is the PR's acceptance criterion: for every wal
// crash point, a crash-restart loop under concurrent load must converge
// — after each restart the tenant's journal replays through the
// sequential oracle to exactly the served digest, every batch the
// client saw acknowledged is present with its original verdict (no
// acked-but-lost), and applied counts match distinct journal IDs (no
// double-applied). Batches in flight at the crash (submitted, never
// acked) are resolved by resubmission: 409 if the crash fell in the
// durable-but-unacked window, 200 if the record never hit the journal —
// either way exactly once.
//
// Runs at fsync=always, the policy whose contract (ack ⇒ durable) the
// soak is asserting. Crashes are the in-process poison model
// (crashPlan): everything journaled before the point survives on
// disk for the next round's recovery, nothing after exists — the same
// observable semantics as kill -9, and runnable under -race.
func TestCrashRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipping under -short")
	}
	for pi, point := range crashPoints {
		t.Run(point, func(t *testing.T) {
			soakOnePoint(t, pi, point)
		})
	}
}

// ack is a client-observed acknowledgement: the verdict the server must
// stand behind forever after.
type ack struct {
	digest  string
	applied int64
}

// soakState is the client-side oracle ledger shared by load goroutines.
type soakState struct {
	mu      sync.Mutex
	specs   map[string]*Batch // every batch ever submitted, by ID
	acked   map[string]ack    // every batch acknowledged with 200
	pending map[string]bool   // submitted, outcome unknown (crash window)
}

func soakOnePoint(t *testing.T, pi int, point string) {
	dir := t.TempDir()
	ledger := &soakState{
		specs:   map[string]*Batch{},
		acked:   map[string]ack{},
		pending: map[string]bool{},
	}
	var idCounter atomic.Int64

	const rounds = 3
	for round := 0; round < rounds; round++ {
		// Escalate the crash point's visit target so successive rounds die
		// at different protocol moments. Append points fire per batch;
		// snapshot/truncate points fire once per snapshot cycle.
		visit := int64(round*9 + 4)
		if point != wal.PointAppendBefore && point != wal.PointAppendAfter {
			visit = int64(round + 1)
		}
		plan := &crashPlan{point: point, visit: visit}

		cfg := Config{
			Runner:        testRunner(),
			DataDir:       dir,
			Fsync:         wal.FsyncAlways,
			SnapshotEvery: 5,
			SegmentBytes:  1 << 10,
			CrashHook:     plan.hook,
		}
		srv := NewServer(cfg)
		if _, err := srv.RecoverTenants(); err != nil {
			t.Fatalf("round %d: boot recovery: %v", round, err)
		}
		ts := httptest.NewServer(srv.Handler())
		c := ts.Client()

		// Convergence check against everything previous rounds
		// established, then resolve the previous crash's in-flight window.
		verifySoak(t, c, ts.URL, srv, ledger)
		resolvePending(t, c, ts.URL, ledger)

		// Concurrent load until the crash fires or the budget is spent.
		var crashed atomic.Bool
		var wg sync.WaitGroup
		for client := 0; client < 3; client++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20 && !crashed.Load(); i++ {
					id := fmt.Sprintf("p%d-b%d", pi, idCounter.Add(1))
					b := soakBatch(id)
					ledger.mu.Lock()
					ledger.specs[id] = b
					ledger.pending[id] = true
					ledger.mu.Unlock()

					code, res, er := submitRaw(t, c, ts.URL, "soak", b)
					switch {
					case code == http.StatusOK:
						ledger.mu.Lock()
						ledger.acked[id] = ack{digest: res.Digest, applied: res.Applied}
						delete(ledger.pending, id)
						ledger.mu.Unlock()
					case code == http.StatusServiceUnavailable && er.Code == CodeJournal:
						// The simulated process is dead; outcome stays pending.
						crashed.Store(true)
					case code == http.StatusConflict:
						t.Errorf("fresh id %s got 409: %+v", id, er)
						return
					default:
						// Shed/deadline/etc: not applied, not acked — retryable.
					}
				}
			}()
		}
		wg.Wait()

		// Shut the round down. On a crash round the journal is poisoned
		// (no further I/O); on a clean round this is a planned drain.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Drain(ctx); err != nil {
			t.Fatalf("round %d drain: %v", round, err)
		}
		cancel()
		srv.CloseJournals()
		ts.Close()

		if round < rounds-1 && !plan.fired.Load() && (point == wal.PointAppendBefore || point == wal.PointAppendAfter) {
			t.Fatalf("round %d: crash plan for %s (visit %d) never fired in %d visits",
				round, point, visit, plan.visits.Load())
		}
	}

	// Final restart: full convergence, then resolve the last crash's
	// window and check once more.
	srv := NewServer(Config{Runner: testRunner(), DataDir: dir, Fsync: wal.FsyncAlways, SnapshotEvery: 5, SegmentBytes: 1 << 10})
	if _, err := srv.RecoverTenants(); err != nil {
		t.Fatalf("final recovery: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer shutdown(t, srv, ts)
	c := ts.Client()
	verifySoak(t, c, ts.URL, srv, ledger)
	resolvePending(t, c, ts.URL, ledger)
	verifySoak(t, c, ts.URL, srv, ledger)
}

// soakBatch derives a deterministic mixed batch from its ID.
func soakBatch(id string) *Batch {
	return mixedBatch(id, int64(relation.HashString(relation.HashSeed, id)%97)+1)
}

// submitRaw posts a batch and decodes whichever reply shape came back.
func submitRaw(t *testing.T, c *http.Client, base, tenant string, b *Batch) (int, BatchResult, ErrorReply) {
	t.Helper()
	var raw json.RawMessage
	code, _ := postBatch(t, c, base, tenant, b, &raw)
	var res BatchResult
	var er ErrorReply
	if code == http.StatusOK {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("decoding 200 body: %v", err)
		}
	} else if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatalf("decoding %d body: %v", code, err)
	}
	return code, res, er
}

// verifySoak asserts the three soak invariants against a live server.
func verifySoak(t *testing.T, c *http.Client, base string, srv *Server, ledger *soakState) {
	t.Helper()
	var st StateReply
	if code := getJSON(t, c, base+"/statez?tenant=soak", &st); code == http.StatusNotFound {
		// No tenant yet (first round, nothing applied before a crash): the
		// ledger must agree nothing was ever acked.
		ledger.mu.Lock()
		n := len(ledger.acked)
		ledger.mu.Unlock()
		if n != 0 {
			t.Fatalf("server lost tenant with %d acked batches", n)
		}
		return
	}
	var j JournalReply
	getJSON(t, c, base+"/journalz?tenant=soak", &j)

	// No double-applied: applied == distinct journal IDs.
	if int64(len(j.IDs)) != st.Applied {
		t.Fatalf("applied %d but journal holds %d ids", st.Applied, len(j.IDs))
	}
	distinct := make(map[string]bool, len(j.IDs))
	for _, id := range j.IDs {
		if distinct[id] {
			t.Fatalf("journal holds id %q twice", id)
		}
		distinct[id] = true
	}

	// Journal == oracle: sequential replay of the journal reproduces the
	// served digest exactly.
	ledger.mu.Lock()
	specs := make(map[string]*Batch, len(ledger.specs))
	for k, v := range ledger.specs {
		specs[k] = v
	}
	acked := make(map[string]ack, len(ledger.acked))
	for k, v := range ledger.acked {
		acked[k] = v
	}
	ledger.mu.Unlock()
	if got := oracleReplay(t, srv.cfg.Schema, specs, j.IDs); got != st.Digest {
		t.Fatalf("journal/oracle divergence: oracle %s, server %s over %d ids", got, st.Digest, len(j.IDs))
	}

	// No acked-but-lost: every acknowledged batch is still applied, and a
	// resubmission returns its original verdict.
	for id, a := range acked {
		if !distinct[id] {
			t.Fatalf("acked batch %q missing from journal after restart", id)
		}
		code, _, er := submitRaw(t, c, base, "soak", specs[id])
		if code != http.StatusConflict || er.Code != CodeDuplicate {
			t.Fatalf("acked batch %q resubmit: %d %+v, want 409 duplicate", id, code, er)
		}
		if er.Digest != a.digest || er.Applied != a.applied {
			t.Fatalf("acked batch %q verdict drifted: acked %+v, now applied=%d digest=%s",
				id, a, er.Applied, er.Digest)
		}
	}
}

// resolvePending resubmits every batch whose outcome the crash ate:
// each must land exactly once — 409 with a verdict if the record
// survived (durable-but-unacked window), 200 if it never journaled.
func resolvePending(t *testing.T, c *http.Client, base string, ledger *soakState) {
	t.Helper()
	ledger.mu.Lock()
	ids := make([]string, 0, len(ledger.pending))
	for id := range ledger.pending {
		ids = append(ids, id)
	}
	ledger.mu.Unlock()
	for _, id := range ids {
		ledger.mu.Lock()
		b := ledger.specs[id]
		ledger.mu.Unlock()
		code, res, er := submitRaw(t, c, base, "soak", b)
		var a ack
		switch code {
		case http.StatusOK:
			a = ack{digest: res.Digest, applied: res.Applied}
		case http.StatusConflict:
			if er.Code != CodeDuplicate || er.Digest == "" || er.Applied <= 0 {
				t.Fatalf("pending %q: 409 without original verdict: %+v", id, er)
			}
			a = ack{digest: er.Digest, applied: er.Applied}
		default:
			t.Fatalf("pending %q: %d %+v, want 200 or 409", id, code, er)
		}
		ledger.mu.Lock()
		ledger.acked[id] = a
		delete(ledger.pending, id)
		ledger.mu.Unlock()
	}
}
