package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one request (a stm.Run, a batch, a recovery) share Req;
// Parent is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// tracing off: every method is a no-op, so the measured run pays one
// nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end int64, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// open starts a span whose children need its index before it ends.
func (t *tracer) open(name string, parent int32, req int64) int32 {
	return t.add(name, t.now(), 0, parent, req)
}

func (t *tracer) close(i int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int32, req int64, f func()) {
	start := t.now()
	f()
	t.add(name, start, t.now(), parent, req)
}

// micros returns the durations of every span called name, in µs.
func (t *tracer) micros(name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// total is the summed duration of every span called name, in seconds.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, us := range t.micros(name) {
		sum += us
	}
	return sum / 1e6
}

// count is the number of spans called name.
func (t *tracer) count(name string) int { return len(t.micros(name)) }

// selfSeconds is the self time of the spans called name: each span's
// duration times width (the number of workers it runs its children on)
// minus the part its direct children cover.
func (t *tracer) selfSeconds(name string, width int) float64 {
	if t == nil {
		return 0
	}
	self := 0.0
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name {
			self += float64(s.End-s.Start) * float64(width)
		}
		if s.Parent >= 0 && t.spans[s.Parent].Name == name {
			self -= float64(s.End - s.Start)
		}
	}
	return self / 1e9
}

// write stores the spans as one JSON document.
func (t *tracer) write(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	doc := struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}
