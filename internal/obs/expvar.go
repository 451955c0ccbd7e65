package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// registry holds what each published expvar name reports. expvar.Publish
// panics on a duplicate name, but runs, tenants and tests legitimately
// publish a name again, so a name is registered with expvar once and
// publishing it again swaps the function behind it.
var registry struct {
	sync.Mutex
	vars map[string]func() any
}

// PublishVars exports fn's value under the expvar name; publishing the
// name again swaps the function behind it. A name someone else registered
// with expvar directly is left alone: fn is recorded, but expvar keeps the
// foreign value, so a process publishing many names (one per tenant) can
// never hit expvar's duplicate-name panic.
func PublishVars(name string, fn func() any) {
	registry.Lock()
	defer registry.Unlock()
	if registry.vars == nil {
		registry.vars = make(map[string]func() any)
	}
	if _, ok := registry.vars[name]; !ok && expvar.Get(name) == nil {
		expvar.Publish(name, expvar.Func(func() any {
			registry.Lock()
			fn := registry.vars[name]
			registry.Unlock()
			return fn()
		}))
	}
	registry.vars[name] = fn
}

// Vars returns the trace's aggregate state as an expvar-friendly value.
func (t *Trace) Vars() map[string]any {
	out := map[string]any{
		"dropped": t.Dropped(),
		"workers": t.Workers(),
	}
	counts := map[string]int64{}
	for ev := EventType(1); ev < numEventTypes; ev++ {
		if n := t.Count(ev); n > 0 {
			counts[ev.String()] = n
		}
	}
	out["counts"] = counts
	hists := map[string]any{}
	for _, ev := range []EventType{EvTask, EvTxRun, EvTxValidate, EvTxCommit, EvCommitWait, EvTxBackoff} {
		h := t.Hist(ev)
		if h.Count() == 0 {
			continue
		}
		hists[ev.String()] = map[string]any{
			"count":   h.Count(),
			"mean_ns": int64(h.Mean()),
			"p50_ns":  h.Quantile(0.50),
			"p95_ns":  h.Quantile(0.95),
			"p99_ns":  h.Quantile(0.99),
			"buckets": h.Snapshot(),
		}
	}
	out["hist"] = hists
	return out
}

// Serve starts the debug HTTP endpoint on addr (e.g. ":6060") in a
// background goroutine: /debug/vars (expvar, including published
// traces) and /debug/pprof/*. It returns the bound address, useful when
// addr has port 0. The listener stays open for the process lifetime —
// the endpoint is a diagnostics tap, not a managed server.
func Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() { _ = http.Serve(ln, mux) }()
	return ln.Addr().String(), nil
}
