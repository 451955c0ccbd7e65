package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	janus "repro"
	"repro/internal/rec"
)

// serviceConfig parameterizes a serviceInjector: the client-side
// misbehavior a serving front end must survive — disconnects
// mid-request, unmeetable deadlines, and slow-tenant storms.
// Probabilities are in [0, 1]; zero disables the class.
type serviceConfig struct {
	// Seed selects the deterministic fault pattern.
	Seed int64
	// DisconnectProb is the per-request probability the client hangs up
	// mid-request (the request context is canceled while the batch may
	// already be admitted or running).
	DisconnectProb float64
	// DeadlineProb is the per-request probability of a deadline-storm
	// request: the batch carries TinyDeadline instead of a sane one,
	// all but guaranteeing a 504.
	DeadlineProb float64
	TinyDeadline time.Duration
	// SlowProb is the per-request probability of a slow-tenant batch:
	// each task is padded with SlowWork spin units so one tenant's
	// traffic hogs its runner while other tenants must stay unaffected.
	SlowProb float64
	SlowWork int64
}

// serviceInjector makes seeded per-request fault decisions. Each is a
// pure function of (seed, site, tenant, sequence), so a soak run's fault
// schedule is reproducible from its seed alone. Safe for concurrent use.
type serviceInjector struct{ cfg serviceConfig }

// Decision sites, each salting its own stream.
const (
	siteDisconnect uint64 = iota + 16
	siteDeadline
	siteSlow
)

// roll maps (seed, site, tenant, seq) to [0, 1) through the splitmix64
// finalizer; the tenant name is folded through FNV so distinct tenants
// draw independent streams.
func (i *serviceInjector) roll(site uint64, tenant string, seq int) float64 {
	mix := func(x uint64) uint64 {
		x += 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		return x ^ (x >> 31)
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(tenant))
	x := mix(mix(uint64(i.cfg.Seed)^site<<56) ^ h.Sum64() ^ uint64(seq)<<20)
	return float64(x>>11) / float64(uint64(1)<<53)
}

// disconnect reports whether the client hangs up mid-request.
func (i *serviceInjector) disconnect(tenant string, seq int) bool {
	return i.cfg.DisconnectProb > 0 && i.roll(siteDisconnect, tenant, seq) < i.cfg.DisconnectProb
}

// deadline returns the storm's tiny deadline (true) or nothing (false).
func (i *serviceInjector) deadline(tenant string, seq int) (time.Duration, bool) {
	if i.cfg.DeadlineProb <= 0 || i.roll(siteDeadline, tenant, seq) >= i.cfg.DeadlineProb {
		return 0, false
	}
	return i.cfg.TinyDeadline, true
}

// slowBatch reports whether this request carries slow-tenant spin
// padding, and how many work units per task.
func (i *serviceInjector) slowBatch(tenant string, seq int) (int64, bool) {
	if i.cfg.SlowProb <= 0 || i.roll(siteSlow, tenant, seq) >= i.cfg.SlowProb {
		return 0, false
	}
	return i.cfg.SlowWork, true
}

// TestChaosServiceSoak is the service-layer soak the tentpole demands:
// three tenants, concurrent clients per tenant, and a seeded service
// injector mixing client disconnects mid-request, deadline storms, and
// slow-tenant batches into honest traffic, against a deliberately tight
// admission window. The invariants:
//
//   - shed-don't-stall: overload produces typed retryable 429/503
//     replies, never unbounded queueing or a wedged server;
//   - exactly-once: no accepted batch is lost or applied twice — every
//     batch a client saw accepted (200 or 409-on-retry) appears in the
//     tenant journal exactly once, and the committed state digest equals
//     the sequential oracle's replay of the journal;
//   - clean drain: after the storm, Drain completes and no goroutines
//     leak.
//
// The fault schedule is a pure function of the seed: a failure
// reproduces by rerunning the test.
func TestChaosServiceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipping under -short")
	}
	leakCheck(t, func() {
		srv := NewServer(Config{
			Runner:          testRunner(),
			MaxInflight:     2,
			DefaultDeadline: 5 * time.Second,
		})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()

		inj := &serviceInjector{serviceConfig{
			Seed:           20260808,
			DisconnectProb: 0.08,
			DeadlineProb:   0.12,
			TinyDeadline:   time.Millisecond,
			SlowProb:       0.10,
			SlowWork:       150_000,
		}}

		tenants := []string{"alpha", "beta", "gamma"}
		const clientsPerTenant = 6
		const batchesPerClient = 10

		// batchByID holds every batch any client sent, for oracle replay.
		var batchMu sync.Mutex
		batchByID := make(map[string]map[string]*Batch) // tenant -> id -> batch
		for _, tn := range tenants {
			batchByID[tn] = make(map[string]*Batch)
		}
		// accepted[tenant] is the set of IDs clients saw accepted.
		accepted := make(map[string]map[string]bool)
		for _, tn := range tenants {
			accepted[tn] = make(map[string]bool)
		}

		// mkBatch builds a deterministic mixed batch; slowWork > 0 pads
		// every task with spin (the slow-tenant storm).
		mkBatch := func(tenant string, cl, seq int, slowWork int64) *Batch {
			id := fmt.Sprintf("%s-c%d-b%d", tenant, cl, seq)
			b := &Batch{ID: id}
			for task := 0; task < 4; task++ {
				ops := []OpSpec{}
				if slowWork > 0 {
					ops = append(ops, OpSpec{Op: "work", Delta: slowWork})
				}
				switch task % 4 {
				case 0:
					ops = append(ops,
						OpSpec{Op: "add", Loc: "c0", Delta: int64(cl*100 + seq)},
						OpSpec{Op: "push", Loc: "stk", Delta: int64(seq)})
				case 1:
					ops = append(ops,
						OpSpec{Op: "put", Loc: "kv", Key: fmt.Sprintf("k-%d-%d", cl, seq), Val: id},
						OpSpec{Op: "add", Loc: "c1", Delta: 1})
				case 2:
					ops = append(ops,
						OpSpec{Op: "load", Loc: "c0"},
						OpSpec{Op: "sub", Loc: "c2", Delta: int64(seq)})
				default:
					ops = append(ops,
						OpSpec{Op: "get", Loc: "kv", Key: fmt.Sprintf("k-%d-%d", cl, seq)},
						OpSpec{Op: "add", Loc: "c3", Delta: 2})
				}
				b.Tasks = append(b.Tasks, TaskSpec{Ops: ops})
			}
			return b
		}

		var wg sync.WaitGroup
		var statMu sync.Mutex
		var sheds, deadlineMisses, disconnects, storms, slows, gaveUp int
		for _, tn := range tenants {
			for cl := 0; cl < clientsPerTenant; cl++ {
				wg.Add(1)
				go func(tenant string, cl int) {
					defer wg.Done()
					for seq := 0; seq < batchesPerClient; seq++ {
						slowWork, slow := inj.slowBatch(tenant, cl*batchesPerClient+seq)
						b := mkBatch(tenant, cl, seq, slowWork)
						d, storm := inj.deadline(tenant, cl*batchesPerClient+seq)
						if storm {
							b.DeadlineMS = d.Milliseconds()
							if b.DeadlineMS <= 0 {
								b.DeadlineMS = 1
							}
						}
						statMu.Lock()
						if slow {
							slows++
						}
						if storm {
							storms++
						}
						statMu.Unlock()
						batchMu.Lock()
						batchByID[tenant][b.ID] = b
						batchMu.Unlock()

						ok := false
						for attempt := 0; attempt < 60 && !ok; attempt++ {
							body, _ := json.Marshal(b)
							req, _ := http.NewRequest(http.MethodPost,
								ts.URL+"/submit?tenant="+tenant, bytes.NewReader(body))
							ctx := context.Background()
							var cancel context.CancelFunc
							if attempt == 0 && inj.disconnect(tenant, cl*batchesPerClient+seq) {
								// Client hangs up ~1ms into the request.
								ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
								statMu.Lock()
								disconnects++
								statMu.Unlock()
							}
							req = req.WithContext(ctx)
							resp, err := client.Do(req)
							if cancel != nil {
								cancel()
							}
							if err != nil {
								// Disconnect fired (or transport hiccup): outcome
								// unknown; retry resolves it (409 = applied).
								time.Sleep(2 * time.Millisecond)
								continue
							}
							var er ErrorReply
							code := resp.StatusCode
							if code != http.StatusOK {
								_ = json.NewDecoder(resp.Body).Decode(&er)
							}
							resp.Body.Close()
							switch code {
							case http.StatusOK, http.StatusConflict:
								// 200 applied now; 409 applied by an earlier
								// attempt whose reply was lost. Both accepted.
								ok = true
							case http.StatusTooManyRequests, http.StatusServiceUnavailable:
								if er.Code == "" || er.RetryAfterMS < 0 {
									t.Errorf("untyped shed reply: %+v", er)
								}
								statMu.Lock()
								sheds++
								statMu.Unlock()
								wait := time.Duration(er.RetryAfterMS) * time.Millisecond
								if wait > 10*time.Millisecond {
									wait = 10 * time.Millisecond
								}
								time.Sleep(wait)
							case http.StatusGatewayTimeout:
								statMu.Lock()
								deadlineMisses++
								statMu.Unlock()
								// Deadline-storm batch: drop the storm deadline
								// and retry sanely.
								b.DeadlineMS = 0
							case StatusCanceled:
								time.Sleep(2 * time.Millisecond)
							default:
								t.Errorf("unexpected status %d (%+v) for %s", code, er, b.ID)
								return
							}
						}
						statMu.Lock()
						if ok {
							// accepted is shared with the verification pass
							// below; guarded by statMu.
							accepted[tenant][b.ID] = true
						} else {
							gaveUp++
						}
						statMu.Unlock()
					}
				}(tn, cl)
			}
		}
		wg.Wait()

		// Drain must complete promptly now that clients are done.
		dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer dcancel()
		if err := srv.Drain(dctx); err != nil {
			t.Fatalf("drain after soak: %v", err)
		}

		// Exactly-once + oracle digest, per tenant.
		for _, tn := range tenants {
			var j JournalReply
			getJSON(t, client, ts.URL+"/journalz?tenant="+tn, &j)
			var st StateReply
			getJSON(t, client, ts.URL+"/statez?tenant="+tn, &st)

			seen := make(map[string]bool, len(j.IDs))
			for _, id := range j.IDs {
				if seen[id] {
					t.Fatalf("tenant %s: batch %s applied twice", tn, id)
				}
				seen[id] = true
				if batchByID[tn][id] == nil {
					t.Fatalf("tenant %s: journal has unknown batch %s", tn, id)
				}
			}
			if int64(len(j.IDs)) != j.Applied || j.Applied != st.Applied {
				t.Fatalf("tenant %s: journal %d applied %d statez %d", tn, len(j.IDs), j.Applied, st.Applied)
			}
			for id := range accepted[tn] {
				if !seen[id] {
					t.Fatalf("tenant %s: accepted batch %s lost from journal", tn, id)
				}
			}
			// Sequential-oracle digest over the journal order.
			oracle := InitialState(srv.cfg.Schema)
			for _, id := range j.IDs {
				var err error
				oracle, err = ApplySequential(oracle, srv.cfg.Schema, batchByID[tn][id])
				if err != nil {
					t.Fatalf("tenant %s: oracle replay of %s: %v", tn, id, err)
				}
			}
			if want := rec.FormatDigest(rec.Digest(oracle)); st.Digest != want {
				t.Fatalf("tenant %s: state digest %s != oracle %s (%d applied)", tn, st.Digest, want, st.Applied)
			}
		}

		// The storm must actually have exercised the shed and fault paths.
		if sheds == 0 {
			t.Error("soak produced no sheds; admission window never saturated")
		}
		if storms == 0 || disconnects == 0 || slows == 0 {
			t.Errorf("injector idle: deadline storms=%d disconnects=%d slow batches=%d", storms, disconnects, slows)
		}
		if gaveUp > 0 {
			t.Logf("note: %d batches gave up after retries (allowed; not lost — never accepted)", gaveUp)
		}
		t.Logf("soak: sheds=%d deadlineMisses=%d disconnects=%d storms=%d slows=%d gaveUp=%d",
			sheds, deadlineMisses, disconnects, storms, slows, gaveUp)
		ts.Close()
		client.CloseIdleConnections()
	})
}

// TestChaosConflictStormCompletes drives one tenant through a conflict
// storm with `janus serve`'s runner defaults (sequence detection, online
// learning, GOMAXPROCS workers, 1ms..32ms backoff): two clients submit
// batches of eight stack pushes, each behind a long spin. Overlapping
// pushes conflict under speculation, and their unbalanced stack shapes
// are unprovable, so every pair query of a retry falls back to the
// write-set check for that pair. Ordered commits bound each task's
// retries: a retry starts only after its predecessor published. The
// invariants:
//
//   - every batch is acknowledged with 200, after retrying any typed
//     overloaded 429 it met on the way; nothing else is ever returned;
//   - the final digest equals the ApplySequential chain over the journal.
//
// The spin per task is sized well past the Go scheduler's preemption
// quantum so speculative windows genuinely overlap even on GOMAXPROCS=1.
// The logged row (batches/s, ack latency, retries, sheds) is the serve
// storm measurement of DESIGN.md §8.
func TestChaosConflictStormCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: skipping under -short")
	}
	const (
		clients   = 2
		perClient = 20
		spin      = 6_000_000 // ~15ms; must exceed the ~10ms preemption quantum
	)
	rcfg := janus.Config{
		Detection:   janus.DetectSequence,
		LearnOnline: true,
		Backoff:     janus.Backoff{Base: time.Millisecond, Max: 32 * time.Millisecond},
	}
	srv := NewServer(Config{Runner: rcfg, Schema: Schema{Stacks: []string{"stk"}}, MaxInflight: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	storm := func(id string, salt int) *Batch {
		b := &Batch{ID: id}
		for i := 0; i < 8; i++ {
			b.Tasks = append(b.Tasks, TaskSpec{Ops: []OpSpec{
				{Op: "work", Delta: spin},
				{Op: "push", Loc: "stk", Delta: int64(salt*64 + i)},
			}})
		}
		return b
	}

	var mu sync.Mutex
	batches := make(map[string]*Batch)
	var latMs []float64
	var retries, sheds, failed int64
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				b := storm(fmt.Sprintf("storm-c%d-%d", cl, i), cl*perClient+i)
				mu.Lock()
				batches[b.ID] = b
				mu.Unlock()
				body, err := json.Marshal(b)
				if err != nil {
					t.Error(err)
					return
				}
				sent := time.Now()
				for {
					resp, err := c.Post(ts.URL+"/submit?tenant=stormy", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("%s: %v", b.ID, err)
						return
					}
					var raw json.RawMessage
					derr := json.NewDecoder(resp.Body).Decode(&raw)
					resp.Body.Close()
					if derr != nil {
						t.Errorf("%s: decoding reply (status %d): %v", b.ID, resp.StatusCode, derr)
						return
					}
					code := resp.StatusCode
					if code == http.StatusOK {
						var res BatchResult
						if err := json.Unmarshal(raw, &res); err != nil {
							t.Errorf("%s: decoding reply: %v", b.ID, err)
						}
						mu.Lock()
						latMs = append(latMs, float64(time.Since(sent).Microseconds())/1e3)
						retries += res.Retries
						mu.Unlock()
						break
					}
					var e ErrorReply
					_ = json.Unmarshal(raw, &e)
					if code != http.StatusTooManyRequests || e.Code != CodeOverloaded {
						mu.Lock()
						failed++
						mu.Unlock()
						t.Errorf("%s: status %d %+v; want 200 or a typed overloaded 429", b.ID, code, e)
						break
					}
					mu.Lock()
					sheds++
					mu.Unlock()
					time.Sleep(min(time.Duration(e.RetryAfterMS)*time.Millisecond, 10*time.Millisecond))
				}
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var j JournalReply
	getJSON(t, c, ts.URL+"/journalz?tenant=stormy", &j)
	if len(j.IDs) != clients*perClient {
		t.Fatalf("journal holds %d batches, want %d", len(j.IDs), clients*perClient)
	}
	oracle := InitialState(srv.cfg.Schema)
	for _, id := range j.IDs {
		var err error
		if oracle, err = ApplySequential(oracle, srv.cfg.Schema, batches[id]); err != nil {
			t.Fatalf("oracle replay of %s: %v", id, err)
		}
	}
	var st StateReply
	getJSON(t, c, ts.URL+"/statez?tenant=stormy", &st)
	if want := rec.FormatDigest(rec.Digest(oracle)); st.Digest != want {
		t.Fatalf("state digest %s != oracle %s", st.Digest, want)
	}

	sort.Float64s(latMs)
	pct := func(q float64) float64 { return latMs[min(len(latMs)-1, int(q*float64(len(latMs))))] }
	n := float64(len(latMs))
	t.Logf("storm: batches=%d batches_per_s=%.2f p50_ms=%.1f p99_ms=%.1f retries_per_batch=%.2f failed=%d shed=%d",
		len(latMs), n/elapsed.Seconds(), pct(0.50), pct(0.99), float64(retries)/n, failed, sheds)
}
