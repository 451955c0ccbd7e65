package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
)

// chromeEvent is one entry of the Chrome trace-event format (the JSON
// consumed by Perfetto and chrome://tracing). Timestamps and durations
// are microseconds; fractional values keep nanosecond precision.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

const chromePid = 1

// WriteChromeJSON exports the retained events as a Chrome trace-event
// file: one lane (thread) per worker, spans as complete ("X") events,
// instants (aborts, cache queries) as instant ("i") events carrying
// their attribution in args. The output opens directly in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing.
func (t *Trace) WriteChromeJSON(w io.Writer) error {
	return writeChromeJSON(w, t.Events())
}

// writeChromeJSON renders an event slice; split out so exports are
// testable against hand-built timelines.
func writeChromeJSON(w io.Writer, events []Event) error {
	var out chromeFile
	out.DisplayUnit = "ns"

	// Thread-name metadata, one per lane actually used.
	workers := map[int32]bool{}
	for _, e := range events {
		workers[e.Worker] = true
	}
	ids := make([]int32, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		name := "worker " + strconv.Itoa(int(id))
		if id < 0 {
			name = "untracked"
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: laneTid(id),
			Args: map[string]any{"name": name},
		})
	}

	for _, e := range events {
		ce := chromeEvent{
			Name: e.Type.String(),
			Ts:   float64(e.When) / 1e3,
			Pid:  chromePid,
			Tid:  laneTid(e.Worker),
			Args: map[string]any{"task": e.Task},
		}
		if e.Attempt > 0 {
			ce.Args["attempt"] = e.Attempt
		}
		if e.Reason != "" {
			ce.Args["reason"] = e.Reason
		}
		if e.Loc != "" {
			ce.Args["loc"] = e.Loc
		}
		if e.Detail != "" {
			ce.Args["detail"] = e.Detail
		}
		if e.Dur > 0 && !isMarker(e.Type) {
			ce.Ph = "X"
			ce.Dur = float64(e.Dur) / 1e3
			if e.Type == EvTask {
				ce.Name = "task " + strconv.Itoa(int(e.Task))
			}
		} else {
			ce.Ph = "i"
			ce.S = markerScope(e.Type)
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// isMarker reports whether an event type is a point-in-time marker —
// cache queries, spec rejections — that must
// render as a Chrome instant ("i") even if a duration sneaks onto it,
// never as a zero-width span.
func isMarker(t EventType) bool {
	switch t {
	case EvCacheHit, EvCacheMiss, EvCacheFallback, EvSpecRejected:
		return true
	default:
		return false
	}
}

// markerScope picks the instant's highlight scope: a spec rejection is a
// run-scoped incident ("g" draws it across the whole timeline);
// everything else stays on its thread lane.
func markerScope(t EventType) string {
	switch t {
	case EvSpecRejected:
		return "g"
	default:
		return "t"
	}
}

// laneTid maps a worker id to a Chrome thread id (tids must be ≥ 0 and
// stable; the untracked lane sorts last).
func laneTid(worker int32) int {
	if worker < 0 {
		return 1 << 20
	}
	return int(worker)
}
