package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLaneCap is the default per-worker ring capacity.
const DefaultLaneCap = 1 << 16

// Trace is the standard Tracer: a set of per-worker ring buffers plus
// per-event-type counters and per-span-type latency histograms. Each
// worker writes to its own lane behind its own mutex, so emission never
// contends across workers; when a lane fills, the oldest events are
// overwritten and counted in Dropped.
type Trace struct {
	epoch   time.Time
	laneCap int

	mu    sync.RWMutex
	lanes []*lane // index = worker+1; lane 0 collects Worker == -1

	dropped atomic.Int64
	counts  [numEventTypes]atomic.Int64
	hists   [numEventTypes]Hist
}

// lane is one worker's ring. buf grows by doubling until it holds laneCap
// events and is a ring from then on: event number n (counting from 0)
// lives at buf[n%len(buf)] in both phases, because len(buf) == emitted
// while the lane is still growing.
type lane struct {
	mu      sync.Mutex
	buf     []Event
	emitted uint64 // events ever written to this lane
}

// Cursor is a read position in a Trace: how many events of each lane a
// reader has been handed. The zero Cursor is the start of the trace.
type Cursor struct{ seen []uint64 }

// NewTrace returns a Trace whose per-worker rings hold laneCap events
// each (DefaultLaneCap when laneCap <= 0). The epoch is now.
func NewTrace(laneCap int) *Trace {
	if laneCap <= 0 {
		laneCap = DefaultLaneCap
	}
	return &Trace{epoch: time.Now(), laneCap: laneCap}
}

// Now implements Tracer.
func (t *Trace) Now() int64 { return epochNow(t.epoch) }

// Emit implements Tracer.
func (t *Trace) Emit(e Event) {
	t.counts[e.Type].Add(1)
	if e.Dur > 0 {
		t.hists[e.Type].Record(e.Dur)
	}
	l := t.lane(int(e.Worker) + 1)
	l.mu.Lock()
	if n := len(l.buf); n < t.laneCap {
		if n == cap(l.buf) {
			grown := make([]Event, n, min(max(2*n, 16), t.laneCap))
			copy(grown, l.buf)
			l.buf = grown
		}
		l.buf = append(l.buf, e)
	} else {
		t.dropped.Add(1)
		l.buf[l.emitted%uint64(n)] = e
	}
	l.emitted++
	l.mu.Unlock()
}

// lane returns the ring at index i, growing the lane table on demand.
func (t *Trace) lane(i int) *lane {
	if i < 0 {
		i = 0
	}
	t.mu.RLock()
	if i < len(t.lanes) {
		l := t.lanes[i]
		t.mu.RUnlock()
		return l
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.lanes) <= i {
		t.lanes = append(t.lanes, &lane{})
	}
	return t.lanes[i]
}

// Dropped returns the number of events overwritten by ring wraparound.
func (t *Trace) Dropped() int64 { return t.dropped.Load() }

// Count returns how many events of the given type were emitted
// (including any later dropped).
func (t *Trace) Count(ev EventType) int64 { return t.counts[ev].Load() }

// Hist returns the latency histogram for a span event type (validation
// time for EvTxValidate, task service time for EvTask, and so on).
func (t *Trace) Hist(ev EventType) *Hist { return &t.hists[ev] }

// Workers returns the number of worker lanes seen so far.
func (t *Trace) Workers() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.lanes) == 0 {
		return 0
	}
	return len(t.lanes) - 1
}

// Events returns the retained events of every lane merged into one
// timeline ordered by When (ties keep lane order). The result is a copy;
// the trace may keep recording.
func (t *Trace) Events() []Event {
	evs, _ := t.Since(Cursor{})
	return evs
}

// Since returns the events emitted after c that the rings still retain,
// ordered by When (ties keep lane order), and the cursor to pass next
// time. Its cost follows the number of new events, not the ring size.
// Every event is handed out exactly once however its When compares to
// events already delivered — a span is stamped with its start but
// emitted at its end — unless its lane wrapped past it first, which
// Dropped counts.
func (t *Trace) Since(c Cursor) ([]Event, Cursor) {
	t.mu.RLock()
	lanes := make([]*lane, len(t.lanes))
	copy(lanes, t.lanes)
	t.mu.RUnlock()
	next := Cursor{seen: make([]uint64, len(lanes))}
	var out []Event
	for i, l := range lanes {
		var from uint64
		if i < len(c.seen) {
			from = c.seen[i]
		}
		l.mu.Lock()
		n := uint64(len(l.buf))
		if from > l.emitted {
			from = 0 // c predates a Reset
		}
		if l.emitted-from > n {
			from = l.emitted - n // the ring wrapped past c
		}
		for ; from < l.emitted; from++ {
			out = append(out, l.buf[from%n])
		}
		next.seen[i] = l.emitted
		l.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].When < out[j].When })
	return out, next
}

// Reset drops all retained events and zeroes counters and histograms,
// keeping the epoch so timestamps stay comparable across runs.
func (t *Trace) Reset() {
	t.mu.Lock()
	t.lanes = nil
	t.mu.Unlock()
	t.dropped.Store(0)
	for i := range t.counts {
		t.counts[i].Store(0)
		t.hists[i].reset()
	}
}
