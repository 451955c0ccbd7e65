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
	"testing"
	"time"

	janus "repro"
	"repro/internal/obs"
)

// TestAckAllocationDoesNotGrowWithTenantAge: what one acknowledged batch
// allocates is a function of the batch. The least any batch of 5000 to
// 5100 of a tenant's life allocates must be within 10% of the least any
// batch of 50 to 150 allocates. (When every ack copied the tenant's trace
// ring the late figure was hundreds of times the early one.) The least,
// because what only raises a batch's bytes is not what an ack costs: the
// rings, maps and recorder chunks that grow with age do it in rare
// doublings, and sync.Pool drops objects at random under -race, which
// left each window's median on either of two modes. A cost that grows
// with age raises every batch of the late window, its least too.
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
	least := func(from, to int) float64 {
		low := submit(from)
		for n := from + 1; n < to; n++ {
			low = min(low, submit(n))
		}
		return float64(low)
	}
	for n := 0; n < 50; n++ {
		submit(n)
	}
	early := least(50, 150)
	for n := 150; n < 5000; n++ {
		submit(n)
	}
	late := least(5000, 5100)
	if late > early*1.10 || late < early*0.90 {
		t.Fatalf("least bytes allocated by a batch: %.0f at batches 50-150, %.0f at 5000-5100 (%.2fx), want within 10%%",
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

// steadyBatchAllocs is what TestSteadyBatchAllocs pins a warm
// benchmark-shaped batch to.
const steadyBatchAllocs = 41

// steadyKeys is the size of the map the allocation pins preload.
const steadyKeys = 1024

// steadyTenant is the tenant the allocation pins measure and send
// servedBatch: two threads under online learning, its map preloaded with
// steadyKeys keys.
func steadyTenant(t *testing.T) (srv *Server, tn *tenant) {
	t.Helper()
	srv = NewServer(Config{Runner: janus.Config{
		Threads:     2,
		LearnOnline: true,
		Backoff:     janus.Backoff{Base: time.Millisecond, Max: 32 * time.Millisecond},
	}, DedupWindow: 16})
	tn, err := srv.tenantFor("steady")
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < steadyKeys; k += 64 {
		b := &Batch{ID: fmt.Sprintf("preload-%d", k)}
		for i := k; i < k+64; i++ {
			b.Tasks = append(b.Tasks, TaskSpec{Ops: []OpSpec{{Op: "put", Loc: "kv", Key: fmt.Sprintf("k%05d", i), Val: "v000000000"}}})
		}
		tasks, err := takeFrame(srv.schIdx).compile(b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.runBatch(context.Background(), b, tasks); err != nil {
			t.Fatal(err)
		}
	}
	return srv, tn
}

// servedBatch is the n-th batch of the benchmark's serve shape over a
// map of steadyKeys keys: four tasks, each a counter add, a put and a get
// of one key, and an add to a counter all four share.
func servedBatch(n int) *Batch {
	b := &Batch{ID: fmt.Sprintf("b-%d", n)}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("k%05d", (n*4+i)*7%steadyKeys)
		b.Tasks = append(b.Tasks, TaskSpec{Ops: []OpSpec{
			{Op: "add", Loc: fmt.Sprintf("c%d", i), Delta: int64(n%100) + 1},
			{Op: "put", Loc: "kv", Key: key, Val: fmt.Sprintf("v%09d", n)},
			{Op: "get", Loc: "kv", Key: key},
			{Op: "add", Loc: "work", Delta: 1},
		}})
	}
	return b
}

// TestSteadyBatchAllocs pins what a tenant allocates to apply one batch
// of the benchmark's serve shape once it is warm (steadyTenant). A batch
// runs on the tenant's long-lived store, so the count is what the tasks'
// operations, commits and workers cost, and nothing that grows with the
// state. The bound is the measured count plus slack for a pool refill; a
// store rebuilt or copied out per batch costs more than the slack.
func TestSteadyBatchAllocs(t *testing.T) {
	srv, tn := steadyTenant(t)
	ctx := context.Background()
	// Each batch compiles on a frame of its own: the measured ones are
	// all compiled before the first is run.
	batch := func(n int) (*Batch, []janus.Task) {
		b := servedBatch(n)
		tasks, err := takeFrame(srv.schIdx).compile(b)
		if err != nil {
			t.Fatal(err)
		}
		return b, tasks
	}
	n := 0
	for ; n < 500; n++ {
		b, tasks := batch(n)
		if _, err := tn.runBatch(ctx, b, tasks); err != nil {
			t.Fatal(err)
		}
	}
	// sync.Pool may drop an object at any time (and does, on purpose,
	// under -race), so one batch can allocate what the steady state does
	// not: take the best of many. AllocsPerRun(1, f) calls f twice.
	const rounds = 100
	bs := make([]*Batch, 2*rounds)
	ts := make([][]janus.Task, 2*rounds)
	for i := range bs {
		bs[i], ts[i] = batch(n + i)
	}
	i := 0
	got := 1e9
	for r := 0; r < rounds; r++ {
		got = min(got, testing.AllocsPerRun(1, func() {
			if _, err := tn.runBatch(ctx, bs[i], ts[i]); err != nil {
				t.Fatal(err)
			}
			i++
		}))
	}
	if got > steadyBatchAllocs+4 {
		t.Fatalf("a warm benchmark-shaped batch allocates %.0f objects, want at most %d+4", got, steadyBatchAllocs)
	}
	t.Logf("%.0f allocations per warm benchmark-shaped batch (pinned %d)", got, steadyBatchAllocs)
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a handler pin counts none of a recorder's allocations.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestSubmitHandlerAllocs pins what the whole /submit handler allocates
// for a warm benchmark-shaped batch on steadyTenant, driven through
// httptest with each request and writer built ahead. It measured 64: the
// 36 of TestSteadyBatchAllocs' run, then the parse's id, keys and values
// (13), the deadline's context and timer and the run's wake-up on it (9),
// the query parse (3) and the reply's header (2). The body, the Batch,
// the tasks and the reply are the frame's. The pin has no slack, because
// the min of a hundred rounds does not move and encoding the reply with
// a json.Encoder again costs a single object; under -race the run's pools
// refill by up to the slack TestSteadyBatchAllocs allows.
func TestSubmitHandlerAllocs(t *testing.T) {
	srv, _ := steadyTenant(t)
	h := srv.Handler()
	request := func(n int) (*http.Request, *discardWriter) {
		body, err := json.Marshal(servedBatch(n))
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewRequest(http.MethodPost, "/submit?tenant=steady", bytes.NewReader(body)),
			&discardWriter{header: http.Header{}}
	}
	n := 0
	for ; n < 500; n++ {
		r, w := request(n)
		if h.ServeHTTP(w, r); w.code != http.StatusOK {
			t.Fatalf("batch %d: status %d", n, w.code)
		}
	}
	const rounds = 100
	rs := make([]*http.Request, 2*rounds)
	ws := make([]*discardWriter, 2*rounds)
	for i := range rs {
		rs[i], ws[i] = request(n + i)
	}
	i := 0
	got := 1e9
	for r := 0; r < rounds; r++ {
		got = min(got, testing.AllocsPerRun(1, func() {
			if h.ServeHTTP(ws[i], rs[i]); ws[i].code != http.StatusOK {
				t.Fatalf("status %d", ws[i].code)
			}
			i++
		}))
	}
	const pinned = 64
	slack := 0
	if raceEnabled {
		slack = 4
	}
	if got > float64(pinned+slack) {
		t.Fatalf("a warm benchmark-shaped submit allocates %.0f objects, want at most %d+%d", got, pinned, slack)
	}
	t.Logf("%.0f allocations per warm benchmark-shaped submit (pinned %d)", got, pinned)
}
