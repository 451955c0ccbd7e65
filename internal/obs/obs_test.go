package obs

import (
	"expvar"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestRingConcurrentEmit drives parallel writers — several per lane —
// and checks that no event is lost or torn: every emitted event comes
// back with its fields intact and per-writer order preserved.
func TestRingConcurrentEmit(t *testing.T) {
	const (
		workers = 4
		writers = 2 // goroutines per worker lane (forces lane contention)
		events  = 500
	)
	tr := NewTrace(workers * writers * events) // no wraparound
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(w, g int) {
				defer wg.Done()
				for i := 0; i < events; i++ {
					// Task and Dur carry the same value so a torn
					// write (fields from two events) is detectable.
					tr.Emit(Event{
						Type:    EvTxBegin,
						When:    int64(g*events + i),
						Dur:     int64(i),
						Worker:  int32(w),
						Task:    int32(i),
						Attempt: int32(g),
					})
				}
			}(w, g)
		}
	}
	wg.Wait()

	got := tr.Events()
	if len(got) != workers*writers*events {
		t.Fatalf("retained %d events, want %d", len(got), workers*writers*events)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d events, want 0", tr.Dropped())
	}
	// Torn-event check plus per-writer order: for each (worker, writer)
	// stream the Task values must be exactly 0..events-1 in order.
	next := map[[2]int32]int32{}
	for _, e := range got {
		if int64(e.Task) != e.Dur {
			t.Fatalf("torn event: Task=%d Dur=%d", e.Task, e.Dur)
		}
		key := [2]int32{e.Worker, e.Attempt}
		if e.Task != next[key] {
			t.Fatalf("worker %d writer %d: got task %d, want %d (lost or reordered)",
				e.Worker, e.Attempt, e.Task, next[key])
		}
		next[key]++
	}
	for key, n := range next {
		if n != events {
			t.Fatalf("stream %v delivered %d events, want %d", key, n, events)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	tr := NewTrace(8)
	for i := 0; i < 20; i++ {
		tr.Emit(Event{Type: EvTxBegin, When: int64(i), Task: int32(i)})
	}
	got := tr.Events()
	if len(got) != 8 {
		t.Fatalf("retained %d, want 8", len(got))
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped %d, want 12", tr.Dropped())
	}
	// The retained suffix must be the newest events, oldest first.
	for i, e := range got {
		if want := int32(12 + i); e.Task != want {
			t.Fatalf("event %d: task %d, want %d", i, e.Task, want)
		}
	}
	if tr.Count(EvTxBegin) != 20 {
		t.Fatalf("count %d, want 20 (dropped events still counted)", tr.Count(EvTxBegin))
	}
}

// TestSinceTailsConcurrentEmitters: a reader that keeps calling Since
// while several writers per lane emit — through every doubling of the
// lanes, which start far below the 2000 events each ends up holding —
// is handed every event exactly once, each writer's in order.
func TestSinceTailsConcurrentEmitters(t *testing.T) {
	const (
		workers = 3
		writers = 2
		events  = 1000
	)
	tr := NewTrace(writers * events)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(w, g int) {
				defer wg.Done()
				for i := 0; i < events; i++ {
					tr.Emit(Event{Type: EvTxBegin, When: int64(i), Worker: int32(w), Task: int32(i), Attempt: int32(g)})
				}
			}(w, g)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	next := map[[2]int32]int32{}
	var cur Cursor
	polls := 0
	for finished := false; !finished; polls++ {
		select {
		case <-done:
			finished = true // one more read picks up the rest
		default:
		}
		var evs []Event
		evs, cur = tr.Since(cur)
		for _, e := range evs {
			key := [2]int32{e.Worker, e.Attempt}
			if e.Task != next[key] {
				t.Fatalf("poll %d, worker %d writer %d: got event %d, want %d (lost, repeated or reordered)",
					polls, e.Worker, e.Attempt, e.Task, next[key])
			}
			next[key]++
		}
	}
	if len(next) != workers*writers {
		t.Fatalf("saw %d writers, want %d", len(next), workers*writers)
	}
	for key, n := range next {
		if n != events {
			t.Fatalf("writer %v delivered %d events, want %d", key, n, events)
		}
	}
	if evs, _ := tr.Since(cur); len(evs) != 0 || tr.Dropped() != 0 {
		t.Fatalf("after the tail caught up: %d more events, %d dropped", len(evs), tr.Dropped())
	}
}

// TestSinceAcrossWraparound: a reader that falls more than a ring behind
// gets what the ring still holds, Dropped counts what was overwritten,
// and the cursor carries on from there.
func TestSinceAcrossWraparound(t *testing.T) {
	tr := NewTrace(8)
	emit := func(from, to int) {
		for i := from; i < to; i++ {
			tr.Emit(Event{Type: EvTxBegin, When: int64(i), Task: int32(i)})
		}
	}
	tasks := func(evs []Event) []int32 {
		var out []int32
		for _, e := range evs {
			out = append(out, e.Task)
		}
		return out
	}
	emit(0, 5)
	evs, cur := tr.Since(Cursor{})
	if len(evs) != 5 || tr.Dropped() != 0 {
		t.Fatalf("first read: %v, dropped %d", tasks(evs), tr.Dropped())
	}
	emit(5, 25)
	evs, cur = tr.Since(cur)
	if got := tasks(evs); len(got) != 8 || got[0] != 17 || got[7] != 24 {
		t.Fatalf("read after the ring wrapped twice: %v, want 17..24", got)
	}
	if tr.Dropped() != 17 {
		t.Fatalf("dropped %d, want 17 (25 emitted, 8 retained)", tr.Dropped())
	}
	emit(25, 28)
	evs, cur = tr.Since(cur)
	if got := tasks(evs); len(got) != 3 || got[0] != 25 || got[2] != 27 {
		t.Fatalf("read after three more: %v, want 25..27", got)
	}
	if all := tasks(tr.Events()); len(all) != 8 || all[0] != 20 || all[7] != 27 {
		t.Fatalf("Events() = %v, want the retained 20..27", all)
	}
	tr.Reset()
	emit(0, 2)
	if evs, _ = tr.Since(cur); len(evs) != 2 {
		t.Fatalf("a cursor from before Reset read %v, want the 2 new events", tasks(evs))
	}
}

// TestSinceDeliversLateSpansOnce: a span is stamped with its start and
// emitted at its end, so it can be older than everything a reader has
// already seen, and two lanes can stamp the same instant. Neither may be
// skipped (a cursor on the largest When seen skipped both) or repeated.
func TestSinceDeliversLateSpansOnce(t *testing.T) {
	tr := NewTrace(0)
	tr.Emit(Event{Type: EvTxBegin, When: 100, Worker: 0})
	evs, cur := tr.Since(Cursor{})
	if len(evs) != 1 {
		t.Fatalf("first read: %d events, want 1", len(evs))
	}
	tr.Emit(Event{Type: EvTask, When: 50, Dur: 100, Worker: 0}) // began before the read, ended after it
	tr.Emit(Event{Type: EvTxBegin, When: 100, Worker: 1})       // same instant, another lane
	evs, cur = tr.Since(cur)
	if len(evs) != 2 || evs[0].Type != EvTask || evs[1].Worker != 1 {
		t.Fatalf("second read: %+v, want the straddling span then lane 1's instant", evs)
	}
	if evs, _ = tr.Since(cur); len(evs) != 0 {
		t.Fatalf("third read repeated %+v", evs)
	}
}

// TestQuietTraceStaysSmall: lanes grow with what is emitted, so a trace
// with the default 65536-event lanes that saw 100 events holds a few KiB
// of ring, not the 17 MB three full lanes take.
func TestQuietTraceStaysSmall(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 100; i++ {
		tr.Emit(Event{Type: EvTxBegin, When: int64(i), Worker: int32(i%3 - 1)})
	}
	var held uintptr
	for _, l := range tr.lanes {
		held += uintptr(cap(l.buf)) * unsafe.Sizeof(Event{})
	}
	if held >= 64<<10 {
		t.Fatalf("100 events hold %d bytes of ring, want < 64 KiB", held)
	}
	if n := len(tr.Events()); n != 100 {
		t.Fatalf("retained %d events, want 100", n)
	}
}

// TestDisabledCtxZeroAllocs pins the contract the stm hot path relies
// on: with a nil tracer, every emission helper used on the
// Exec/validate/commit path is allocation-free.
func TestDisabledCtxZeroAllocs(t *testing.T) {
	var ctx Ctx
	allocs := testing.AllocsPerRun(1000, func() {
		start := ctx.Now()
		ctx.Instant(EvTxBegin)
		ctx.Cache(EvCacheHit, "loc", "")
		ctx.Abort("same-read", "loc", "")
		ctx.End(EvTxValidate, start)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f per run, want 0", allocs)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for i := int64(1); i <= 1000; i++ {
		h.Record(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.sum.Load(); got != 1000*1001/2 {
		t.Fatalf("sum %d", got)
	}
	p50, p99 := h.Quantile(0.5), h.Quantile(0.99)
	if p50 < 500-1 || p50 > 1023 {
		t.Fatalf("p50 %d outside bucketed [499, 1023]", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 %d < p50 %d", p99, p50)
	}
	if !strings.Contains(h.String(), "n=1000") {
		t.Fatalf("summary %q", h.String())
	}
	h.Record(-5) // clamps, must not panic
	if h.Count() != 1001 {
		t.Fatalf("count after clamp %d", h.Count())
	}
}

func TestHistogramsFedBySpans(t *testing.T) {
	tr := NewTrace(16)
	tr.Emit(Event{Type: EvTxValidate, When: 0, Dur: 1500})
	tr.Emit(Event{Type: EvTxValidate, When: 10, Dur: 2500})
	tr.Emit(Event{Type: EvTxAbort, When: 20}) // instant: no histogram
	h := tr.Hist(EvTxValidate)
	if h.Count() != 2 || h.sum.Load() != 4000 {
		t.Fatalf("validate hist n=%d sum=%d, want 2/4000", h.Count(), h.sum.Load())
	}
	vars := tr.Vars()
	if vars["counts"].(map[string]int64)["tx.abort"] != 1 {
		t.Fatalf("vars counts = %v", vars["counts"])
	}
	if _, ok := vars["hist"].(map[string]any)["tx.validate"]; !ok {
		t.Fatalf("vars hist missing tx.validate: %v", vars["hist"])
	}
}

func TestPublishRepublish(t *testing.T) {
	t1, t2 := NewTrace(8), NewTrace(8)
	t1.Emit(Event{Type: EvTxBegin})
	PublishVars("janus.test", func() any { return t1.Vars() })
	PublishVars("janus.test", func() any { return t2.Vars() }) // must not panic on duplicate name
	t2.Emit(Event{Type: EvTxBegin})
	t2.Emit(Event{Type: EvTxBegin})
	if got := expvar.Get("janus.test").String(); !strings.Contains(got, `"tx.begin":2`) {
		t.Fatalf("republish did not swap the trace: %s", got)
	}
}

// TestPublishForeignExpvarName: a name someone else already registered
// with expvar directly (another package, a test, a user's own expvar.Func)
// must not crash the process — expvar.Publish panics on duplicates, and a
// daemon publishing one name per tenant cannot afford that. PublishVars
// must detect the foreign registration, skip the second expvar.Publish,
// and still record the function for swap semantics.
func TestPublishForeignExpvarName(t *testing.T) {
	const name = "janus.test.foreign"
	expvar.Publish(name, expvar.Func(func() any { return "foreign" }))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("PublishVars panicked on foreign expvar name: %v", r)
		}
	}()
	PublishVars(name, func() any { return "ours" })
	PublishVars(name, func() any { return "ours again" }) // second call exercises the recorded-name path too
	// The foreign registration keeps the expvar slot; PublishVars must not
	// have replaced or broken it.
	if v := expvar.Get(name); v == nil || !strings.Contains(v.String(), "foreign") {
		t.Errorf("expvar %q = %v, want the original foreign registration", name, v)
	}
}

func TestReset(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(Event{Type: EvTask, Dur: 100, Worker: 0})
	tr.Reset()
	if len(tr.Events()) != 0 || tr.Count(EvTask) != 0 || tr.Hist(EvTask).Count() != 0 {
		t.Fatal("reset left state behind")
	}
}
