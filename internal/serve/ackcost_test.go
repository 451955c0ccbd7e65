package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestAckAllocationDoesNotGrowWithTenantAge: what one acknowledged batch
// allocates is a function of the batch. The median over batches 5000 to
// 5100 of a tenant's life must be within 10% of the median over batches
// 50 to 150. (When every ack copied the tenant's trace ring the late
// median was hundreds of times the early one.) A median, because the
// rings, maps and recorder chunks that do grow with age do it in rare
// doublings, and those are not what an ack costs.
func TestAckAllocationDoesNotGrowWithTenantAge(t *testing.T) {
	// A short dedup window keeps the seen index at its steady size from the
	// start and evicts on every batch, as an old tenant does.
	srv := NewServer(Config{Runner: testRunner(), DedupWindow: 16})
	h := srv.Handler()
	// Two tasks of adds, puts and gets over eight keys: the state keeps
	// its size for the tenant's whole life.
	submit := func(n int) uint64 {
		key := fmt.Sprintf("k%d", n%8)
		body, _ := json.Marshal(&Batch{ID: fmt.Sprintf("b-%d", n), Tasks: []TaskSpec{
			{Ops: []OpSpec{{Op: "add", Loc: "c0", Delta: int64(n%50) + 1}}},
			{Ops: []OpSpec{{Op: "put", Loc: "kv", Key: key, Val: "v"}, {Op: "get", Loc: "kv", Key: key}}},
		}})
		req := httptest.NewRequest(http.MethodPost, "/submit?tenant=aging", bytes.NewReader(body))
		w := httptest.NewRecorder()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.ServeHTTP(w, req)
		runtime.ReadMemStats(&m1)
		if w.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", n, w.Code, w.Body)
		}
		return m1.TotalAlloc - m0.TotalAlloc
	}
	median := func(from, to int) float64 {
		var per []uint64
		for n := from; n < to; n++ {
			per = append(per, submit(n))
		}
		sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
		return float64(per[len(per)/2])
	}
	for n := 0; n < 50; n++ {
		submit(n)
	}
	early := median(50, 150)
	for n := 150; n < 5000; n++ {
		submit(n)
	}
	late := median(5000, 5100)
	if late > early*1.10 || late < early*0.90 {
		t.Fatalf("median bytes allocated per batch: %.0f at batches 50-150, %.0f at 5000-5100 (%.2fx), want within 10%%",
			early, late, late/early)
	}
	// Eviction reslices instead of sliding the window down; the array
	// behind the index must stay the size of the window all the same.
	tn := srv.lookup("aging")
	tn.mu.Lock()
	defer tn.mu.Unlock()
	if len(tn.seenOrder) != 16 || len(tn.seen) != 16 || cap(tn.seenOrder) > 4*16 {
		t.Fatalf("after 5100 batches at window 16: %d ordered entries (cap %d), %d indexed",
			len(tn.seenOrder), cap(tn.seenOrder), len(tn.seen))
	}
}

// TestTimelineFollowDeliversLateSpansOnce: a span is stamped with its
// start and recorded at its end, so one that straddles a poll of
// /timeline?follow=1 is older than what the follower has already been
// sent. It must still arrive, once; so must an event that shares its
// timestamp with one already sent. Events a full ring overwrote before
// any poll are counted by Dropped, not delivered.
func TestTimelineFollowDeliversLateSpansOnce(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner(), TraceLane: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	postBatch(t, ts.Client(), ts.URL, "tail", addBatch("b1", 1, 1), nil)
	tr := srv.lookup("tail").trace

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/timeline?tenant=tail&follow=1", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := make(chan map[string]any)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var ev map[string]any
			if json.Unmarshal(sc.Bytes(), &ev) == nil {
				select {
				case lines <- ev:
				case <-ctx.Done():
					return
				}
			}
		}
	}()
	// marked reads the stream until the mark (an event with that detail)
	// arrives, returning how often each detail was seen on the way.
	marked := func(mark string) map[string]int {
		t.Helper()
		seen := map[string]int{}
		timeout := time.After(5 * time.Second)
		for {
			select {
			case ev, ok := <-lines:
				if !ok {
					t.Fatalf("stream ended before %q arrived", mark)
				}
				d, _ := ev["detail"].(string)
				seen[d]++
				if d == mark {
					return seen
				}
			case <-timeout:
				t.Fatalf("%q never arrived; saw %v", mark, seen)
			}
		}
	}

	now := tr.Now()
	tr.Emit(obs.Event{Type: obs.EvTxBegin, When: now, Worker: 0, Detail: "first"})
	marked("first") // the follower's cursor is now past When == now

	tr.Emit(obs.Event{Type: obs.EvTask, When: now - 1000, Dur: 5000, Worker: 0, Detail: "straddler"})
	tr.Emit(obs.Event{Type: obs.EvTxBegin, When: now, Worker: 1, Detail: "same-instant"})
	tr.Emit(obs.Event{Type: obs.EvTxBegin, When: tr.Now(), Worker: 0, Detail: "second"})
	if seen := marked("second"); seen["straddler"] != 1 || seen["same-instant"] != 1 {
		t.Fatalf("between the marks the follower got %v, want straddler and same-instant once each", seen)
	}

	// Overrun lane 0's 64-event ring between two polls.
	before := tr.Dropped()
	for i := 0; i < 200; i++ {
		tr.Emit(obs.Event{Type: obs.EvTxBegin, When: tr.Now(), Worker: -1, Detail: "flood"})
	}
	tr.Emit(obs.Event{Type: obs.EvTxBegin, When: tr.Now(), Worker: 0, Detail: "third"})
	seen := marked("third")
	if seen["straddler"]+seen["same-instant"]+seen["second"] != 0 {
		t.Fatalf("events were repeated after the ring wrapped: %v", seen)
	}
	if lost := tr.Dropped() - before; lost < 200-64 || seen["flood"] > 64 {
		t.Fatalf("flood of 200 into a 64-event lane: %d delivered, Dropped grew by %d", seen["flood"], lost)
	}
}
