package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	janus "repro"
	"repro/internal/adt"
	"repro/internal/rec"
	"repro/internal/serve"
	"repro/internal/wal"
)

// Every batch is 4 tasks of 4 ops: a counter add, a put and a get on an
// existing key with a fixed-width value, and an add to a counter all
// four tasks share. State size is steady for the whole run.
const (
	batchTasks   = 4
	preloadBatch = 64 // keys one preload batch puts
	// shadowSample bounds the request bodies replayed through the staged
	// shadow pipeline.
	shadowSample = 200
)

// serveShape is what distinguishes the serve workloads.
type serveShape struct {
	tenants, clientsPerTenant, keys int
	durable                         bool
}

func shapeOf(workload string, quick bool) serveShape {
	var s serveShape
	switch workload {
	case wlServeMem:
		s = serveShape{tenants: 1, clientsPerTenant: clients, keys: 1024}
	case wlServeDur:
		s = serveShape{tenants: clients, clientsPerTenant: 1, keys: 32, durable: true}
	case wlRecovery:
		s = serveShape{tenants: clients, clientsPerTenant: 1, keys: 256, durable: true}
	}
	if quick && s.keys > 64 {
		s.keys = 64
	}
	return s
}

// serveConfig is serve.Config as janus-serve builds it from its flag
// defaults (online learning, 1ms..32ms backoff, fsync always, snapshot
// every 1024 batches), with the worker count pinned for this sandbox.
func serveConfig(dataDir string) serve.Config {
	return serve.Config{
		Runner: janus.Config{
			Threads:     threads,
			LearnOnline: true,
			Backoff:     janus.Backoff{Base: time.Millisecond, Max: 32 * time.Millisecond},
		},
		DataDir: dataDir,
		Fsync:   wal.FsyncAlways,
	}
}

// harness is an in-process janus-serve on a loopback TCP listener plus
// the client side's memory of what it sent.
type harness struct {
	shape  serveShape
	srv    *serve.Server
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
	// sent is every batch a client submitted, by tenant and ID: the
	// oracle replays the server's journal from it.
	sent map[string]map[string]*serve.Batch
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }
func keyName(i int) string    { return fmt.Sprintf("k%05d", i) }

func startServer(shape serveShape, dataDir string) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{
		shape:  shape,
		srv:    serve.NewServer(serveConfig(dataDir)),
		done:   make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 30 * time.Second},
		sent:   map[string]map[string]*serve.Batch{},
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() { h.done <- h.hs.Serve(ln) }()
	for t := 0; t < shape.tenants; t++ {
		h.sent[tenantName(t)] = map[string]*serve.Batch{}
	}
	return h, nil
}

// stop drains the server, closes its journals and listener, and waits
// for the serving goroutine.
func (h *harness) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Drain(ctx)
	if cerr := h.srv.CloseJournals(); err == nil {
		err = cerr
	}
	h.client.CloseIdleConnections()
	if serr := h.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	<-h.done
	return err
}

// preloadBatches fill the map to shape.keys keys, preloadBatch keys per
// batch.
func preloadBatches(shape serveShape, tenant string) []*serve.Batch {
	var out []*serve.Batch
	for base := 0; base < shape.keys; base += preloadBatch {
		b := &serve.Batch{ID: fmt.Sprintf("%s-pre-%d", tenant, base)}
		per := preloadBatch / batchTasks
		for t := 0; t < batchTasks; t++ {
			var ops []serve.OpSpec
			for k := base + t*per; k < base+(t+1)*per && k < shape.keys; k++ {
				ops = append(ops, serve.OpSpec{Op: "put", Loc: "kv", Key: keyName(k), Val: fmt.Sprintf("v%09d", 0)})
			}
			if len(ops) > 0 {
				b.Tasks = append(b.Tasks, serve.TaskSpec{Ops: ops})
			}
		}
		out = append(out, b)
	}
	return out
}

func (h *harness) preload() error {
	for t := 0; t < h.shape.tenants; t++ {
		tenant := tenantName(t)
		for _, b := range preloadBatches(h.shape, tenant) {
			body, _ := json.Marshal(b)
			if _, status, err := h.submit(tenant, body); err != nil || status != http.StatusOK {
				return fmt.Errorf("preloading %s: status %d, %v", tenant, status, err)
			}
			h.sent[tenant][b.ID] = b
		}
	}
	return nil
}

// submit posts one batch and decodes a 200 reply.
func (h *harness) submit(tenant string, body []byte) (serve.BatchResult, int, error) {
	var br serve.BatchResult
	resp, err := h.client.Post(h.base+"/submit?tenant="+tenant, "application/json", bytes.NewReader(body))
	if err != nil {
		return br, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&br)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return br, resp.StatusCode, err
}

func (h *harness) getJSON(path string, out any) error {
	resp, err := h.client.Get(h.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// genBatch draws one batch: four distinct existing keys, so the tasks of
// a batch never conflict on the map and no operation fails.
func genBatch(r *rand.Rand, shape serveShape, id string) *serve.Batch {
	b := &serve.Batch{ID: id}
	var keys [batchTasks]int
	for t := range keys {
	draw:
		for {
			keys[t] = r.Intn(shape.keys)
			for _, k := range keys[:t] {
				if k == keys[t] {
					continue draw
				}
			}
			break
		}
		key := keyName(keys[t])
		b.Tasks = append(b.Tasks, serve.TaskSpec{Ops: []serve.OpSpec{
			{Op: "add", Loc: fmt.Sprintf("c%d", t), Delta: r.Int63n(100) + 1},
			{Op: "put", Loc: "kv", Key: key, Val: fmt.Sprintf("v%09d", r.Intn(1e9))},
			{Op: "get", Loc: "kv", Key: key},
			{Op: "add", Loc: "work", Delta: 1},
		}})
	}
	return b
}

// loadStats is what the clients of one load phase saw.
type loadStats struct {
	latMs                       []float64
	early, late                 []float64 // each client's first and last quarter of latMs
	accepted                    map[string]map[string]bool
	attempted, failed, shed     int64
	commits, retries, elapsedMs int64
	bodyBytes                   int64
	bodies                      [][]byte
	seconds                     float64
	mallocs, bytes              uint64
}

func (l *loadStats) acked() float64 { return float64(len(l.latMs)) }

// load runs the closed-loop clients: each sends its next batch only when
// the previous one is answered. A client stops when its batch count
// reaches perClient (if positive) or the duration has passed.
func (h *harness) load(seed int64, dur time.Duration, perClient int, tr *tracer) *loadStats {
	total := &loadStats{accepted: map[string]map[string]bool{}}
	for t := 0; t < h.shape.tenants; t++ {
		total.accepted[tenantName(t)] = map[string]bool{}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var reqs atomic.Int64
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for t := 0; t < h.shape.tenants; t++ {
		for c := 0; c < h.shape.clientsPerTenant; c++ {
			wg.Add(1)
			go func(tenant string, c int, r *rand.Rand) {
				defer wg.Done()
				my := &loadStats{}
				sent := map[string]*serve.Batch{}
				var okIDs []string
				for n := 0; (perClient > 0 && n < perClient) || (perClient <= 0 && time.Since(start) < dur); n++ {
					b := genBatch(r, h.shape, fmt.Sprintf("%s-c%d-b%d", tenant, c, n))
					body, _ := json.Marshal(b)
					sent[b.ID] = b
					t0 := tr.now()
					w0 := time.Now()
					reply, status, err := h.submit(tenant, body)
					lat := time.Since(w0)
					my.attempted++
					my.bodyBytes += int64(len(body))
					if err != nil || status != http.StatusOK {
						my.failed++
						if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
							my.shed++
						}
						continue
					}
					tr.add("http.submit", t0, tr.now(), -1, reqs.Add(1))
					my.latMs = append(my.latMs, float64(lat)/1e6)
					my.commits += reply.Commits
					my.retries += reply.Retries
					my.elapsedMs += reply.ElapsedMS
					okIDs = append(okIDs, b.ID)
					if len(my.bodies) < shadowSample/(h.shape.tenants*h.shape.clientsPerTenant) {
						my.bodies = append(my.bodies, body)
					}
				}
				mu.Lock()
				defer mu.Unlock()
				for id, b := range sent {
					h.sent[tenant][id] = b
				}
				for _, id := range okIDs {
					total.accepted[tenant][id] = true
				}
				total.latMs = append(total.latMs, my.latMs...)
				q := len(my.latMs) / 4
				total.early = append(total.early, my.latMs[:q]...)
				total.late = append(total.late, my.latMs[len(my.latMs)-q:]...)
				total.bodies = append(total.bodies, my.bodies...)
				total.attempted += my.attempted
				total.failed += my.failed
				total.shed += my.shed
				total.commits += my.commits
				total.retries += my.retries
				total.elapsedMs += my.elapsedMs
				total.bodyBytes += my.bodyBytes
			}(tenantName(t), c, rand.New(rand.NewSource(seed*1000+int64(t*10+c))))
		}
	}
	wg.Wait()
	total.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	total.mallocs = m1.Mallocs - m0.Mallocs
	total.bytes = m1.TotalAlloc - m0.TotalAlloc
	return total
}

// verify checks the exactly-once contract and the oracle per tenant:
// journal IDs are unique, every accepted batch is in the journal, and
// the /statez digest equals a serve.ApplySequential replay of /journalz.
// It returns the replayed states.
func (h *harness) verify(res *result, accepted map[string]map[string]bool) map[string]*janus.State {
	states := map[string]*janus.State{}
	for t := 0; t < h.shape.tenants; t++ {
		tenant := tenantName(t)
		var j serve.JournalReply
		var st serve.StateReply
		if err := h.getJSON("/journalz?tenant="+tenant, &j); err != nil {
			res.fail(1, "%s: %v", tenant, err)
			continue
		}
		if err := h.getJSON("/statez?tenant="+tenant, &st); err != nil {
			res.fail(1, "%s: %v", tenant, err)
			continue
		}
		seen := make(map[string]bool, len(j.IDs))
		for _, id := range j.IDs {
			if seen[id] {
				res.fail(1, "%s: batch %s applied twice", tenant, id)
			}
			seen[id] = true
		}
		for id := range accepted[tenant] {
			if !seen[id] {
				res.fail(1, "%s: accepted batch %s is not in the journal", tenant, id)
			}
		}
		if int64(len(j.IDs)) != j.Applied || j.Applied != st.Applied {
			res.fail(1, "%s: journal %d vs applied %d vs statez %d", tenant, len(j.IDs), j.Applied, st.Applied)
		}
		oracle := serve.InitialState(serve.DefaultSchema())
		for _, id := range j.IDs {
			b, ok := h.sent[tenant][id]
			if !ok {
				res.fail(1, "%s: journal has foreign batch %s", tenant, id)
				continue
			}
			next, err := serve.ApplySequential(oracle, serve.DefaultSchema(), b)
			if err != nil {
				res.fail(1, "%s: oracle replay of %s: %v", tenant, id, err)
				continue
			}
			oracle = next
		}
		if got := rec.FormatDigest(rec.Digest(oracle)); got != st.Digest {
			res.fail(1, "%s: /statez digest %s, sequential replay %s", tenant, st.Digest, got)
		}
		states[tenant] = oracle
	}
	return states
}

// phaseEnd is what a server reported when a load phase ended, and the
// states the oracle replayed.
type phaseEnd struct {
	health serve.HealthReply
	vars   map[string]json.RawMessage
	states map[string]*janus.State
}

// servePhase is one load phase on a fresh server: set-up, closed-loop
// load for dur, the reads of /healthz and /varz, the output check, and
// shutdown. Every phase starts cold, because a tenant's ack path slows
// with its applied count until the tenant's trace ring is full; phases on
// one server would not be comparable.
func servePhase(res *result, setUp func() (*harness, error), seed int64, dur time.Duration, tr *tracer) (*loadStats, *phaseEnd, error) {
	h, err := setUp()
	if err != nil {
		return nil, nil, err
	}
	stopPoll := func() {}
	if tr != nil {
		stopPoll = h.pollReads(tr)
	}
	l := h.load(seed, dur, 0, tr)
	stopPoll()
	res.Attempted += l.attempted
	if l.failed > 0 {
		res.fail(l.failed, "%d of %d batches were refused or failed", l.failed, l.attempted)
	}
	end := &phaseEnd{}
	if err := h.getJSON("/healthz", &end.health); err != nil {
		return nil, nil, err
	}
	if err := h.getJSON("/varz", &end.vars); err != nil {
		return nil, nil, err
	}
	end.states = h.verify(res, l.accepted)
	return l, end, h.stop()
}

func runServe(o options, res *result, scratch string) (*tracer, error) {
	shape := shapeOf(o.Workload, o.Quick)
	var setups []float64
	setUp := func() (*harness, error) {
		dir := ""
		if shape.durable {
			dir = filepath.Join(scratch, fmt.Sprintf("data-%d", len(setups)))
		}
		start := time.Now()
		h, err := startServer(shape, dir)
		if err != nil {
			return nil, err
		}
		if err := h.preload(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		return h, nil
	}
	// Set-up is repeated so that setup_s is the fastest of several; each phase then
	// sets up once more for itself.
	for moreSetup(o, setups) {
		h, err := setUp()
		if err != nil {
			return nil, err
		}
		if err := h.stop(); err != nil {
			return nil, err
		}
	}
	dur := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		dur /= 2
	}
	measured, end, err := servePhase(res, setUp, o.Seed, dur, nil)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", fastest(setups))
	res.Samples["setup_s"] = len(setups)
	serveEndToEnd(res, measured)
	if !o.Trace {
		return nil, nil
	}
	tr := newTracer()
	traced, tracedEnd, err := servePhase(res, setUp, o.Seed, dur, tr)
	if err != nil {
		return nil, err
	}
	return tr, serveLayers(res, tr, shape, measured, traced, end, tracedEnd.states[tenantName(0)], scratch)
}

// serveEndToEnd turns one untraced load phase into the end-to-end
// metrics. A txn is one committed task of an acknowledged batch.
func serveEndToEnd(res *result, l *loadStats) {
	res.set("batch_steady_ms", mean(l.latMs))
	res.set("txn_per_s", ratio(float64(l.commits), l.seconds))
	res.set("batch_per_s", ratio(l.acked(), l.seconds))
	res.set("batch_p50_ms", median(l.latMs))
	res.set("batch_p99_ms", percentile(l.latMs, 0.99))
	res.set("allocs_per_batch", ratio(float64(l.mallocs), l.acked()))
	res.set("alloc_kb_per_batch", ratio(float64(l.bytes)/1024, l.acked()))
	res.set("allocs_per_txn", ratio(float64(l.mallocs), float64(l.commits)))
	res.set("alloc_kb_per_txn", ratio(float64(l.bytes)/1024, float64(l.commits)))
	res.set("bench.samples", l.acked())
	res.Samples["batches"] = len(l.latMs)
	res.Samples["batches_beyond_p99"] = len(l.latMs) / 100
}

// pollReads reads /healthz and /statez beside the writes, four times a
// second, until the returned function is called.
func (h *harness) pollReads(tr *tracer) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				var hr serve.HealthReply
				tr.timed("serve.healthz", -1, -1, func() { _ = h.getJSON("/healthz", &hr) })
				var sr serve.StateReply
				tr.timed("serve.statez", -1, -1, func() { _ = h.getJSON("/statez?tenant="+tenantName(0), &sr) })
			}
		}
	}()
	return func() { close(quit); <-done }
}

// serveLayers fills the per-layer metrics of a serve workload: counters
// from the replies, /healthz and /varz, and timings from the staged
// shadow pipeline.
func serveLayers(res *result, tr *tracer, shape serveShape, measured, traced *loadStats, end *phaseEnd, shadow *janus.State, scratch string) error {
	res.set("serve.request_bytes", ratio(float64(measured.bodyBytes), float64(measured.attempted)))
	res.set("serve.run_ms", ratio(float64(measured.elapsedMs), measured.acked()))
	res.set("serve.commits_per_batch", ratio(float64(measured.commits), measured.acked()))
	res.set("serve.retries_per_batch", ratio(float64(measured.retries), measured.acked()))
	res.set("serve.shed_share", ratio(float64(measured.shed), float64(measured.attempted)))
	res.set("serve.p50_last_over_first", ratio(median(measured.late), median(measured.early)))
	res.set("serve.healthz_ms", median(tr.micros("serve.healthz"))/1e3)
	res.set("serve.statez_ms", median(tr.micros("serve.statez"))/1e3)
	res.set("bench.trace_overhead_share", 1-ratio(ratio(traced.acked(), traced.seconds), ratio(measured.acked(), measured.seconds)))
	res.set("bench.runs", float64(tr.count("http.submit")))

	var demotions, tripped, snapshots float64
	for tenant, th := range end.health.Tenants {
		snapshots += float64(th.Snapshots)
		var gov struct {
			Demotions int64 `json:"demotions"`
			Trips     int64 `json:"trips"`
		}
		if raw, ok := end.vars["janus.health."+tenant]; ok {
			if err := json.Unmarshal(raw, &gov); err != nil {
				return fmt.Errorf("reading /varz janus.health.%s: %w", tenant, err)
			}
		}
		demotions += float64(gov.Demotions)
		tripped += float64(gov.Trips)
	}
	res.set("health.demotions", demotions)
	res.set("health.tripped", tripped)
	if demotions+tripped > 0 {
		res.Notes = append(res.Notes, "a tenant's governor demoted or tripped: this run is not comparable")
	}
	if shape.durable {
		res.set("wal.snapshots", snapshots)
	}

	if shadow == nil {
		return fmt.Errorf("no verified state to build the shadow pipeline on")
	}
	walDir := ""
	if shape.durable {
		walDir = filepath.Join(scratch, "shadow-wal")
	}
	if err := shadowPipeline(res, tr, shadow, traced.bodies, walDir); err != nil {
		return err
	}
	// The reply's elapsed_ms is only meaningful as a mean (it is truncated
	// to whole ms), so the base is the mean latency of the same phase.
	staged := res.raw["serve.decode_us"]/1e3 + ratio(float64(traced.elapsedMs), traced.acked()) +
		res.raw["rec.digest_us"]/1e3 + res.raw["wal.append_us_p50"]/1e3
	res.set("serve.unattributed_ms", mean(traced.latMs)-staged)
	res.Samples["spans"] = len(tr.spans)
	return nil
}

// shadowPipeline replays request bodies through the stages of the ack
// path, one call per layer, on a shadow state of the tenant's size:
// decode, sequential apply, digest, journal append under the workload's
// fsync policy, then snapshot encode and write, state decode, single map
// operations and a state clone. walDir empty means no journal.
func shadowPipeline(res *result, tr *tracer, st *janus.State, bodies [][]byte, walDir string) error {
	schema := serve.DefaultSchema()
	var synced, unsynced *wal.Log
	if walDir != "" {
		var err error
		if synced, _, err = wal.Recover(filepath.Join(walDir, "always"), wal.Options{Policy: wal.FsyncAlways}); err != nil {
			return fmt.Errorf("opening the shadow journal: %w", err)
		}
		defer synced.Close()
		if unsynced, _, err = wal.Recover(filepath.Join(walDir, "never"), wal.Options{Policy: wal.FsyncNever}); err != nil {
			return fmt.Errorf("opening the shadow journal: %w", err)
		}
		defer unsynced.Close()
	}
	var userBytes float64
	for i, body := range bodies {
		req := int64(i)
		root := tr.open("shadow.batch", -1, req)
		var b serve.Batch
		var err error
		tr.timed("json.decode", root, req, func() {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			err = dec.Decode(&b)
		})
		if err != nil {
			return fmt.Errorf("shadow decode: %w", err)
		}
		tr.timed("serve.apply_seq", root, req, func() { st, err = serve.ApplySequential(st, schema, &b) })
		if err != nil {
			return fmt.Errorf("shadow apply: %w", err)
		}
		var digest uint64
		tr.timed("rec.digest", root, req, func() { digest = rec.Digest(st) })
		if synced != nil {
			r := wal.Record{Seq: uint64(i + 1), ID: b.ID, Payload: body, Digest: digest}
			tr.timed("wal.append", root, req, func() { err = synced.Append(r) })
			if err != nil {
				return fmt.Errorf("shadow append: %w", err)
			}
			tr.timed("wal.append_nosync", root, req, func() { err = unsynced.Append(r) })
			if err != nil {
				return fmt.Errorf("shadow append: %w", err)
			}
			userBytes += float64(len(body))
		}
		tr.close(root)
	}
	res.set("serve.decode_us", median(tr.micros("json.decode")))
	res.set("serve.apply_seq_us", median(tr.micros("serve.apply_seq")))
	res.set("rec.digest_us", median(tr.micros("rec.digest")))
	res.Samples["shadow.batches"] = len(bodies)

	if err := stateStages(res, tr, st, synced, uint64(len(bodies))); err != nil {
		return err
	}
	if synced != nil {
		appends := tr.micros("wal.append")
		stats := synced.Stats()
		res.set("wal.append_us_p50", median(appends))
		res.set("wal.append_us_p99", percentile(appends, 0.99))
		res.set("wal.append_nosync_us", median(tr.micros("wal.append_nosync")))
		res.set("wal.syncs_per_append", ratio(float64(stats.Syncs), float64(stats.Appends)))
		res.set("wal.disk_bytes_per_batch", ratio(float64(unsynced.Stats().SegBytes), float64(len(bodies))))
		res.set("wal.bytes_per_user_byte", ratio(float64(unsynced.Stats().SegBytes), userBytes))
	}
	return nil
}

// stateStages times, on st, the calls whose cost grows with the state:
// snapshot encode and write (log may be nil), state decode, a clone, and
// single put and get operations on the map.
func stateStages(res *result, tr *tracer, st *janus.State, log *wal.Log, seq uint64) error {
	var enc []byte
	var err error
	for i := 0; i < 5; i++ {
		tr.timed("rec.encode_state", -1, -1, func() { enc, err = rec.EncodeState(st) })
		if err != nil {
			return fmt.Errorf("shadow snapshot encode: %w", err)
		}
		if log != nil {
			snap := wal.Snapshot{Seq: seq, Digest: rec.Digest(st), State: enc}
			tr.timed("wal.snapshot", -1, -1, func() { err = log.WriteSnapshot(snap) })
			if err != nil {
				return fmt.Errorf("shadow snapshot write: %w", err)
			}
		}
		tr.timed("rec.decode_state", -1, -1, func() { _, err = rec.DecodeState(enc) })
		if err != nil {
			return fmt.Errorf("shadow snapshot decode: %w", err)
		}
		tr.timed("state.clone", -1, -1, func() { _ = st.Clone() })
	}
	res.set("rec.encode_state_us", median(tr.micros("rec.encode_state")))
	res.set("rec.decode_state_us", median(tr.micros("rec.decode_state")))
	res.set("rec.state_bytes", float64(len(enc)))
	res.set("state.clone_us", median(tr.micros("state.clone")))
	if log != nil {
		res.set("wal.snapshot_ms", median(tr.micros("wal.snapshot"))/1e3)
	}
	locs, tuples := stateSize(st)
	res.set("state.locs", locs)
	res.set("state.rel_tuples", tuples)

	scratch := st.Clone()
	for i := 0; i < shadowSample; i++ {
		key := keyName(i % int(tuples))
		tr.timed("relation.put", -1, -1, func() { _, err = adt.RelPutOp{L: "kv", Key: key, Val: "v000000001"}.Apply(scratch) })
		if err != nil {
			return fmt.Errorf("shadow put: %w", err)
		}
		tr.timed("relation.get", -1, -1, func() { _, err = adt.RelGetOp{L: "kv", Key: key}.Apply(scratch) })
		if err != nil {
			return fmt.Errorf("shadow get: %w", err)
		}
	}
	res.set("relation.put_us", median(tr.micros("relation.put")))
	res.set("relation.get_us", median(tr.micros("relation.get")))
	return nil
}
