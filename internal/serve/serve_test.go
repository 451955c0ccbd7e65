package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	janus "repro"
	"repro/internal/adt"
	"repro/internal/rec"
)

// leakCheck asserts the goroutine count settles back after fn: drained
// servers must not leak workers, watchers, or handler goroutines.
func leakCheck(t *testing.T, fn func()) {
	t.Helper()
	before := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testRunner is a fast runner template for tests.
func testRunner() janus.Config {
	return janus.Config{
		Threads:   4,
		Detection: janus.DetectWriteSet,
		Backoff:   janus.Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond},
	}
}

// postBatch submits a batch and decodes the reply into out (a pointer),
// returning the HTTP status and the raw Retry-After header.
func postBatch(t *testing.T, client *http.Client, base, tenant string, b *Batch, out any) (int, string) {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/submit?tenant="+tenant, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding reply (status %d): %v", resp.StatusCode, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

func getJSON(t *testing.T, client *http.Client, url string, out any) int {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s (status %d): %v", url, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

// addBatch builds a simple counter batch.
func addBatch(id string, tasks int, delta int64) *Batch {
	b := &Batch{ID: id}
	for i := 0; i < tasks; i++ {
		b.Tasks = append(b.Tasks, TaskSpec{Ops: []OpSpec{
			{Op: "add", Loc: "c0", Delta: delta},
		}})
	}
	return b
}

func TestSubmitAndIntrospection(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	// A mixed batch touching every ADT kind.
	b := &Batch{ID: "b1", Tasks: []TaskSpec{
		{Ops: []OpSpec{{Op: "add", Loc: "c0", Delta: 5}, {Op: "push", Loc: "stk", Delta: 7}}},
		{Ops: []OpSpec{{Op: "put", Loc: "kv", Key: "k", Val: "v"}, {Op: "work", Delta: 100}}},
		{Ops: []OpSpec{{Op: "sub", Loc: "c0", Delta: 2}, {Op: "get", Loc: "kv", Key: "k"}}},
	}}
	var res BatchResult
	if code, _ := postBatch(t, c, ts.URL, "acme", b, &res); code != http.StatusOK {
		t.Fatalf("submit status = %d, body %+v", code, res)
	}
	if res.Commits != 3 || res.Applied != 1 || res.Digest == "" {
		t.Fatalf("result = %+v", res)
	}

	// The reply digest matches the sequential oracle.
	oracle := InitialState(srv.cfg.Schema)
	oracle, err := ApplySequential(oracle, srv.cfg.Schema, b)
	if err != nil {
		t.Fatal(err)
	}
	if want := rec.FormatDigest(rec.Digest(oracle)); res.Digest != want {
		t.Fatalf("digest = %s, oracle %s", res.Digest, want)
	}

	// statez agrees and shows the committed counter.
	var st StateReply
	if code := getJSON(t, c, ts.URL+"/statez?tenant=acme", &st); code != http.StatusOK {
		t.Fatalf("statez status = %d", code)
	}
	if st.Digest != res.Digest || st.Values["c0"] != "3" {
		t.Fatalf("statez = %+v", st)
	}

	// Duplicate ID refused with 409; state unchanged.
	var er ErrorReply
	if code, _ := postBatch(t, c, ts.URL, "acme", b, &er); code != http.StatusConflict || er.Code != CodeDuplicate {
		t.Fatalf("duplicate: status %d, code %q", code, er.Code)
	}

	// journalz lists exactly the applied batch.
	var j JournalReply
	getJSON(t, c, ts.URL+"/journalz?tenant=acme", &j)
	if j.Applied != 1 || len(j.IDs) != 1 || j.IDs[0] != "b1" {
		t.Fatalf("journal = %+v", j)
	}

	// Validation failures are typed 400s and never touch state.
	for _, bad := range []*Batch{
		{ID: "", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "add", Loc: "c0"}}}}},
		{ID: "x", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "add", Loc: "nope", Delta: 1}}}}},
		{ID: "y", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "push", Loc: "c0", Delta: 1}}}}},
		{ID: "z", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "frob", Loc: "c0"}}}}},
		{ID: "w", Tasks: []TaskSpec{}},
	} {
		var e ErrorReply
		if code, _ := postBatch(t, c, ts.URL, "acme", bad, &e); code != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Fatalf("bad batch %q: status %d code %q", bad.ID, code, e.Code)
		}
	}

	// Introspection on an unknown tenant is a 404, not a tenant creation.
	if code := getJSON(t, c, ts.URL+"/statez?tenant=ghost", nil); code != http.StatusNotFound {
		t.Fatalf("ghost statez status = %d", code)
	}

	// healthz names the tenant and its applied count.
	var h HealthReply
	getJSON(t, c, ts.URL+"/healthz", &h)
	if h.Status != "ok" || h.Tenants["acme"].Applied != 1 {
		t.Fatalf("healthz = %+v", h)
	}

	// A task-body failure (pop of an empty stack) is a typed 422 and the
	// batch is retryable: the same ID can be resubmitted.
	popBatch := &Batch{ID: "pop1", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "pop", Loc: "stk"}}}, {Ops: []OpSpec{{Op: "pop", Loc: "stk"}}}}}
	var e ErrorReply
	if code, _ := postBatch(t, c, ts.URL, "acme", popBatch, &e); code != http.StatusUnprocessableEntity || e.Code != CodeBatchFailed {
		t.Fatalf("pop batch: status %d code %q", code, e.Code)
	}
	// One element is on the stack from b1: a single pop succeeds on retry
	// of the same ID (failed batches are not burned).
	okPop := &Batch{ID: "pop1", Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "pop", Loc: "stk"}}}}}
	var res2 BatchResult
	if code, _ := postBatch(t, c, ts.URL, "acme", okPop, &res2); code != http.StatusOK {
		t.Fatalf("pop retry status = %d", code)
	}

	// The timeline endpoint streams NDJSON events for the tenant.
	resp, err := c.Get(ts.URL + "/timeline?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev map[string]any
		if err := dec.Decode(&ev); err != nil {
			break
		}
		lines++
	}
	resp.Body.Close()
	if lines == 0 {
		t.Fatal("timeline returned no events")
	}
}

func TestTenantIsolationAndLimit(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner(), MaxTenants: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	var r1, r2 BatchResult
	postBatch(t, c, ts.URL, "t1", addBatch("a", 2, 10), &r1)
	postBatch(t, c, ts.URL, "t2", addBatch("a", 2, 99), &r2)
	// Same batch ID in different tenants is not a duplicate, and the
	// states are independent.
	var s1, s2 StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=t1", &s1)
	getJSON(t, c, ts.URL+"/statez?tenant=t2", &s2)
	if s1.Values["c0"] != "20" || s2.Values["c0"] != "198" {
		t.Fatalf("isolation broken: t1 c0=%s t2 c0=%s", s1.Values["c0"], s2.Values["c0"])
	}

	// Third tenant is refused with a typed, retryable 429.
	var e ErrorReply
	code, retryAfter := postBatch(t, c, ts.URL, "t3", addBatch("a", 1, 1), &e)
	if code != http.StatusTooManyRequests || e.Code != CodeTenantLimit || retryAfter == "" {
		t.Fatalf("tenant limit: status %d code %q retry-after %q", code, e.Code, retryAfter)
	}
}

// TestOverloadShedsTyped: with a one-slot admission window, concurrent
// slow submits must shed with typed 429s carrying Retry-After — and
// never queue without bound.
func TestOverloadShedsTyped(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner(), MaxInflight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	const clients = 8
	var wg sync.WaitGroup
	var oks, sheds, other int64
	var mu sync.Mutex
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &Batch{ID: fmt.Sprintf("slow-%d", i), Tasks: []TaskSpec{
				{Ops: []OpSpec{{Op: "work", Delta: 3_000_000}, {Op: "add", Loc: "c0", Delta: 1}}},
			}}
			var raw json.RawMessage
			code, retryAfter := postBatch(t, c, ts.URL, "load", b, &raw)
			mu.Lock()
			defer mu.Unlock()
			switch code {
			case http.StatusOK:
				oks++
			case http.StatusTooManyRequests:
				var e ErrorReply
				_ = json.Unmarshal(raw, &e)
				if e.Code != CodeOverloaded || e.RetryAfterMS <= 0 || retryAfter == "" {
					t.Errorf("shed reply: code %q retry_after_ms %d header %q", e.Code, e.RetryAfterMS, retryAfter)
				}
				sheds++
			default:
				other++
			}
		}(i)
	}
	wg.Wait()
	if oks == 0 || sheds == 0 || other != 0 {
		t.Fatalf("oks=%d sheds=%d other=%d; want some accepted, some shed, nothing else", oks, sheds, other)
	}
	if got := srv.Vars()["sheds"].(int64); got != sheds {
		t.Errorf("server sheds var = %d, want %d", got, sheds)
	}
}

// TestDeadlinePropagation: a batch that cannot finish inside its
// declared deadline returns a retryable 504 and leaves state unchanged.
func TestDeadlinePropagation(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	postBatch(t, c, ts.URL, "dl", addBatch("base", 1, 7), nil)
	var before StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=dl", &before)

	// Each task spins ~far longer than the 20ms deadline.
	b := &Batch{ID: "too-slow", DeadlineMS: 20}
	for i := 0; i < 4; i++ {
		b.Tasks = append(b.Tasks, TaskSpec{Ops: []OpSpec{
			{Op: "work", Delta: 30_000_000}, {Op: "add", Loc: "c0", Delta: 1},
		}})
	}
	var e ErrorReply
	code, retryAfter := postBatch(t, c, ts.URL, "dl", b, &e)
	if code != http.StatusGatewayTimeout || e.Code != CodeDeadline || retryAfter == "" {
		t.Fatalf("deadline reply: status %d code %q retry-after %q", code, e.Code, retryAfter)
	}
	var after StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=dl", &after)
	if after.Digest != before.Digest {
		t.Fatalf("state changed across failed batch: %s -> %s", before.Digest, after.Digest)
	}
}

// TestOversizeWorkRejected: a batch whose work ops sum past maxBatchWork
// would spin beyond every deadline and drain, since a task body cannot be
// preempted. It is a 400 before admission, whether one op is huge or the
// sum of several would overflow, and the tenant state is unchanged.
func TestOversizeWorkRejected(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	postBatch(t, c, ts.URL, "spin", addBatch("base", 1, 7), nil)
	var before StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=spin", &before)

	work := func(id string, deltas ...int64) *Batch {
		b := &Batch{ID: id}
		for _, d := range deltas {
			b.Tasks = append(b.Tasks, TaskSpec{Ops: []OpSpec{{Op: "work", Delta: d}}})
		}
		return b
	}
	for _, b := range []*Batch{
		work("huge", 9_000_000_000_000_000_000),
		work("overflowing", 1<<62, 1<<62, 1<<62),
		work("just-over", maxBatchWork/2, maxBatchWork/2, 1),
	} {
		var e ErrorReply
		if code, _ := postBatch(t, c, ts.URL, "spin", b, &e); code != http.StatusBadRequest || e.Code != CodeBadRequest {
			t.Fatalf("%s: status %d code %q, want 400 bad_request", b.ID, code, e.Code)
		}
	}
	var after StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=spin", &after)
	if after.Digest != before.Digest || after.Applied != before.Applied {
		t.Fatalf("state changed across rejected batches: %+v -> %+v", before, after)
	}
	if _, err := compile(srv.schIdx, work("at-bound", maxBatchWork/2, maxBatchWork/2)); err != nil {
		t.Fatalf("a batch of exactly maxBatchWork units was refused: %v", err)
	}
}

// TestAbsentValPutRejected: a put of adt.AbsentVal reads back as an
// unbound key and is classified as a remove by the effect analysis, so a
// batch carrying it is a 400 before admission and the tenant state is
// unchanged; any other value is accepted.
func TestAbsentValPutRejected(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	put := func(id, val string) *Batch {
		return &Batch{ID: id, Tasks: []TaskSpec{{Ops: []OpSpec{{Op: "put", Loc: "kv", Key: "k", Val: val}}}}}
	}
	postBatch(t, c, ts.URL, "kv", put("base", "x"), nil)
	var before StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=kv", &before)

	var e ErrorReply
	if code, _ := postBatch(t, c, ts.URL, "kv", put("absent", adt.AbsentVal), &e); code != http.StatusBadRequest || e.Code != CodeBadRequest {
		t.Fatalf("put of %q: status %d code %q, want 400 bad_request", adt.AbsentVal, code, e.Code)
	}
	var after StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=kv", &after)
	if after.Digest != before.Digest || after.Applied != before.Applied {
		t.Fatalf("state changed across a rejected batch: %+v -> %+v", before, after)
	}
	if _, err := compile(srv.schIdx, put("empty", "")); err != nil {
		t.Fatalf("a put of the empty value was refused: %v", err)
	}
}

// TestDrainStopsIntakeAndDumpsFlight: Drain refuses new intake with a
// typed 503, finishes in-flight work, and DumpFlight writes a per-tenant
// flight-recorder artifact.
func TestDrainStopsIntakeAndDumpsFlight(t *testing.T) {
	srv := NewServer(Config{Runner: testRunner()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	postBatch(t, c, ts.URL, "d1", addBatch("a", 4, 3), nil)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	var e ErrorReply
	code, retryAfter := postBatch(t, c, ts.URL, "d1", addBatch("b", 1, 1), &e)
	if code != http.StatusServiceUnavailable || e.Code != CodeDraining || retryAfter == "" {
		t.Fatalf("post-drain submit: status %d code %q retry-after %q", code, e.Code, retryAfter)
	}
	var h HealthReply
	if code := getJSON(t, c, ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("draining healthz: status %d body %+v", code, h)
	}

	dir := t.TempDir()
	paths, err := srv.DumpFlight(dir)
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if len(paths) != 1 || !strings.HasSuffix(paths[0], "flight-d1.jtrace") {
		t.Fatalf("dump paths = %v", paths)
	}
	fi, err := os.Stat(filepath.Join(dir, "flight-d1.jtrace"))
	if err != nil || fi.Size() == 0 {
		t.Fatalf("flight artifact missing or empty: %v %v", fi, err)
	}
}

// TestSubmitContract drives handleSubmit with the bodies the batch codec
// decides differently from a lenient JSON decoder: bytes after the batch,
// a key repeated under case folding, and a body over MaxBody are 400
// bad_request naming the cause; a body of exactly MaxBody, a chunked
// body and case-folded keys are accepted.
func TestSubmitContract(t *testing.T) {
	const maxBody = 512
	srv := NewServer(Config{Runner: testRunner(), MaxBody: maxBody})
	valid := func(id string) string {
		return `{"id":"` + id + `","tasks":[{"ops":[{"op":"add","loc":"c0","delta":1}]}]}`
	}
	pad := func(body string, n int) string { return body + strings.Repeat(" ", n-len(body)) }
	for _, tc := range []struct {
		name    string
		body    string
		chunked bool
		want    int
		cause   string // in the 400's message
	}{
		{name: "concatenated batches", body: valid("cat1") + valid("cat2"), want: http.StatusBadRequest, cause: "trailing data"},
		{name: "repeated key", body: `{"id":"d","id":"e","tasks":[{"ops":[{"op":"add","loc":"c0"}]}]}`, want: http.StatusBadRequest, cause: `repeated key "id"`},
		{name: "repeated key folded", body: `{"id":"d","tasks":[{"ops":[{"op":"add","loc":"c0","Loc":"c1"}]}]}`, want: http.StatusBadRequest, cause: `repeated key "loc"`},
		{name: "exactly MaxBody", body: pad(valid("max"), maxBody), want: http.StatusOK},
		{name: "MaxBody+1", body: pad(valid("over"), maxBody+1), want: http.StatusBadRequest, cause: fmt.Sprintf("%d-byte limit", maxBody)},
		{name: "chunked", body: valid("chunked"), chunked: true, want: http.StatusOK},
		{name: "chunked over MaxBody", body: pad(valid("chunked-over"), maxBody+1), chunked: true, want: http.StatusBadRequest, cause: fmt.Sprintf("%d-byte limit", maxBody)},
		{name: "case-folded keys", body: `{"ID":"fold","Tasks":[{"OPS":[{"Op":"add","LOC":"c0","Delta":2}]}]}`, want: http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader = strings.NewReader(tc.body)
			if tc.chunked {
				body = io.MultiReader(body) // hides the length: no Content-Length
			}
			r := httptest.NewRequest(http.MethodPost, "/submit?tenant=contract", body)
			if tc.chunked {
				if r.ContentLength != -1 {
					t.Fatalf("chunked request has Content-Length %d", r.ContentLength)
				}
			} else if r.ContentLength != int64(len(tc.body)) {
				t.Fatalf("request has Content-Length %d, want %d", r.ContentLength, len(tc.body))
			}
			w := httptest.NewRecorder()
			srv.handleSubmit(w, r)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body)
			}
			if tc.want != http.StatusBadRequest {
				return
			}
			var e ErrorReply
			if err := json.NewDecoder(w.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if e.Code != CodeBadRequest || !strings.Contains(e.Error, tc.cause) {
				t.Fatalf("reply %+v, want code %q naming %q", e, CodeBadRequest, tc.cause)
			}
		})
	}
	var st StateReply
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/statez?tenant=contract", nil))
	if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Applied != 3 {
		t.Fatalf("%d batches applied, want the 3 accepted rows", st.Applied)
	}
}
