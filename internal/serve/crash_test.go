package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rec"
	"repro/internal/wal"
)

// crashTenant is the one tenant every recorded run writes, under
// crashDataDir.
const (
	crashTenant  = "soak"
	crashDataDir = "/data"
)

// crashRun is one recorded run: the calls its memFS saw and, for every
// batch, where in those calls it was sent and acknowledged.
type crashRun struct {
	policy  wal.Policy
	fs      *memFS
	specs   map[string]*Batch
	journal []string // batch IDs in journal order at the end of the run
	oracle  []string // oracle[n]: digest of the sequential replay of journal[:n]
	sentAt  map[string]int
	ackAt   map[string]int // a batch recovered at the start is acked at 0
	verdict map[string]ack
}

// ack is the verdict a 200 handed out: the server must stand behind it
// forever after.
type ack struct {
	digest  string
	applied int64
}

func crashConfig(policy wal.Policy, m *memFS) Config {
	return Config{
		Runner:        testRunner(),
		DataDir:       crashDataDir,
		Fsync:         policy,
		FsyncInterval: time.Hour, // no background flush: the recording is deterministic
		SegmentBytes:  512,       // a rotation every few records
		SnapshotEvery: -1,        // snapshots are taken where the run says
		fs:            m,
	}
}

// submitLocal posts b to the handler in process. Safe to call from any
// goroutine: a reply it cannot decode is reported with t.Errorf.
func submitLocal(t *testing.T, h http.Handler, b *Batch) (int, BatchResult, ErrorReply) {
	t.Helper()
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/submit?tenant="+crashTenant, bytes.NewReader(body)))
	var res BatchResult
	var er ErrorReply
	if rr.Code == http.StatusOK {
		err = json.Unmarshal(rr.Body.Bytes(), &res)
	} else {
		err = json.Unmarshal(rr.Body.Bytes(), &er)
	}
	if err != nil {
		t.Errorf("decoding %d reply: %v", rr.Code, err)
	}
	return rr.Code, res, er
}

// journalOf lists a recovered tenant's applied IDs in journal order.
func journalOf(srv *Server) (*tenant, []string) {
	tn := srv.lookup(crashTenant)
	if tn == nil {
		return nil, nil
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	ids := make([]string, len(tn.seenOrder))
	for i, e := range tn.seenOrder {
		ids[i] = e.id
	}
	return tn, ids
}

// recordRun starts a server on a memFS holding image, recovers it, and
// submits batches one at a time, publishing a snapshot (and truncating
// what it covers) after each batch whose index is in snapAfter. It ends
// with a planned shutdown.
func recordRun(t *testing.T, policy wal.Policy, image []*node, specs map[string]*Batch, batches []*Batch, snapAfter ...int) *crashRun {
	t.Helper()
	m := newMemFS(image)
	run := &crashRun{policy: policy, fs: m, specs: specs,
		sentAt: map[string]int{}, ackAt: map[string]int{}, verdict: map[string]ack{}}
	srv := NewServer(crashConfig(policy, m))
	if _, err := srv.RecoverTenants(); err != nil {
		t.Fatalf("recovering the run's starting image: %v", err)
	}
	if tn, ids := journalOf(srv); tn != nil {
		tn.mu.Lock()
		for _, id := range ids {
			ab := tn.seen[id]
			run.ackAt[id] = 0
			run.verdict[id] = ack{digest: rec.FormatDigest(ab.digest), applied: int64(ab.seq)}
		}
		tn.mu.Unlock()
	}
	h := srv.Handler()
	for i, b := range batches {
		specs[b.ID] = b
		run.sentAt[b.ID] = m.count()
		code, res, er := submitLocal(t, h, b)
		if code != http.StatusOK {
			t.Fatalf("run submit %s: %d %+v", b.ID, code, er)
		}
		run.ackAt[b.ID] = m.count()
		run.verdict[b.ID] = ack{digest: res.Digest, applied: res.Applied}
		if slices.Contains(snapAfter, i) {
			if err := srv.lookup(crashTenant).writeSnapshotNow(); err != nil {
				t.Fatalf("snapshot after %s: %v", b.ID, err)
			}
		}
	}
	if err := srv.CloseJournals(); err != nil {
		t.Fatal(err)
	}
	_, run.journal = journalOf(srv)

	run.oracle = oracleDigests(t, specs, run.journal)
	return run
}

// oracleDigests returns, for n = 0..len(ids), the digest of the
// sequential replay of ids[:n] from the initial state.
func oracleDigests(t *testing.T, specs map[string]*Batch, ids []string) []string {
	t.Helper()
	st := InitialState(DefaultSchema())
	out := []string{rec.FormatDigest(rec.Digest(st))}
	for _, id := range ids {
		next, err := ApplySequential(st, DefaultSchema(), specs[id])
		if err != nil {
			t.Fatalf("oracle replay of %s: %v", id, err)
		}
		st = next
		out = append(out, rec.FormatDigest(rec.Digest(st)))
	}
	return out
}

// epoch numbers the send and ack boundaries up to cut: states with the
// same image and epoch are held to the same expectations.
func (run *crashRun) epoch(cut int) (n int) {
	for id, at := range run.ackAt {
		if at <= cut {
			n++
		}
		if run.sentAt[id] <= cut {
			n++
		}
	}
	return n
}

// crashBatches builds n deterministic mixed batches named prefix-1...
func crashBatches(prefix string, n int) []*Batch {
	out := make([]*Batch, n)
	for i := range out {
		id := fmt.Sprintf("%s-%d", prefix, i+1)
		out[i] = mixedBatch(id, int64(i*7%13)+1)
	}
	return out
}

// tenantFiles returns the names and bytes in the tenant's journal
// directory of an image.
func tenantFiles(img []*node) map[string][]byte {
	files := map[string][]byte{}
	data, ok := img[0].dir[strings.TrimPrefix(crashDataDir, "/")]
	if !ok {
		return files
	}
	dir, ok := img[data].dir[crashTenant]
	if !ok {
		return files
	}
	for name, ino := range img[dir].dir {
		files[name] = img[ino].data
	}
	return files
}

// crashCoverage counts enumerated states of the shapes the crash cases
// of a snapshot and a repair produce.
type crashCoverage struct {
	partialTemp   int // a snapshot temp file never renamed
	coveredSegs   int // a published snapshot beside a segment it covers
	tornTail      int // a segment ending in a torn record
	multiSegments int // more than one segment
}

func (c *crashCoverage) add(img []*node) {
	var snap uint64
	var segs []uint64
	for name, data := range tenantFiles(img) {
		var seq uint64
		switch {
		case strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp"):
			c.partialTemp++
		case strings.HasPrefix(name, "snap-"):
			fmt.Sscanf(name, "snap-%016x.jsnap", &seq)
			snap = max(snap, seq)
		case strings.HasPrefix(name, "wal-"):
			fmt.Sscanf(name, "wal-%016x.seg", &seq)
			segs = append(segs, seq)
			if _, valid, err := wal.ScanSegment(data); err != nil && valid > 0 && valid < len(data) {
				c.tornTail++
			}
		}
	}
	if len(segs) > 1 {
		c.multiSegments++
	}
	for _, s := range segs {
		for _, next := range segs {
			if next > s && next <= snap+1 {
				c.coveredSegs++
				return
			}
		}
	}
}

// checkCrashState recovers one crash image with the real wal.Recover and
// serve recovery and holds it to the durability contract:
//
//   - recovery succeeds and finds no torn snapshot (fsio.Atomic's
//     promise: a published name holds the whole artifact);
//   - the recovered journal is a prefix of the run's, so no batch
//     applies twice, and the state digest is the sequential oracle's
//     over that prefix;
//   - every batch acked before the cut is present (under FsyncAlways
//     for every state, under the other policies for process death), and
//     its resubmission answers 409 with the verdict the ack gave;
//   - the batch in flight at the cut resolves exactly once: 409 with a
//     verdict if its record survived, else a fresh 200;
//   - a batch appended after the recovery survives a second crash (a
//     process death once the journal is closed) behind exactly the
//     recovered journal.
func checkCrashState(t *testing.T, run *crashRun, ci crashImage) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		var names []string
		for name, data := range tenantFiles(ci.nodes) {
			names = append(names, fmt.Sprintf("%s(%d)", name, len(data)))
		}
		t.Fatalf("%s crash at call %d of %d (process death %v, files %v): %s",
			run.policy, ci.cut, len(run.fs.ops), ci.death, names, fmt.Sprintf(format, args...))
	}
	m := newMemFS(ci.nodes)
	srv := NewServer(crashConfig(run.policy, m))
	if _, err := srv.RecoverTenants(); err != nil {
		fail("recovery failed: %v", err)
	}
	tn, ids := journalOf(srv)
	if tn != nil && tn.recBadSnaps != 0 {
		fail("recovery skipped %d torn snapshot(s)", tn.recBadSnaps)
	}
	if len(ids) > len(run.journal) {
		fail("recovered %d batches, the run journaled %d", len(ids), len(run.journal))
	}
	for i, id := range ids {
		if id != run.journal[i] {
			fail("journal position %d holds %q, the run wrote %q", i+1, id, run.journal[i])
		}
	}
	if tn != nil {
		tn.mu.Lock()
		applied, digest := tn.applied, rec.FormatDigest(tn.digest)
		tn.mu.Unlock()
		if applied != int64(len(ids)) {
			fail("applied %d but the journal holds %d ids", applied, len(ids))
		}
		if digest != run.oracle[len(ids)] {
			fail("digest %s, sequential oracle over %d batches %s", digest, len(ids), run.oracle[len(ids)])
		}
	}
	if run.policy == wal.FsyncAlways || ci.death {
		checkAcksKept(t, run, ci, srv, ids, fail)
	}

	_, before := journalOf(srv)
	fresh := mixedBatch("after-crash", 5)
	if code, _, er := submitLocal(t, srv.Handler(), fresh); code != http.StatusOK {
		fail("a fresh batch after recovery: %d %+v", code, er)
	}
	if err := srv.CloseJournals(); err != nil {
		fail("closing the recovered journal: %v", err)
	}
	again := NewServer(crashConfig(run.policy, newMemFS(m.image())))
	if _, err := again.RecoverTenants(); err != nil {
		fail("second recovery, after an append to the recovered journal: %v", err)
	}
	if _, after := journalOf(again); !slices.Equal(after, append(before, fresh.ID)) {
		fail("second recovery holds %v, want %v then %q", after, before, fresh.ID)
	}
}

// checkAcksKept holds a recovered server to the acks handed out before
// the cut and resolves the batch in flight at it.
func checkAcksKept(t *testing.T, run *crashRun, ci crashImage, srv *Server, ids []string, fail func(string, ...any)) {
	t.Helper()
	h := srv.Handler()
	for _, id := range run.journal[len(ids):] {
		if run.ackAt[id] <= ci.cut {
			fail("acked batch %q lost (acked at call %d)", id, run.ackAt[id])
		}
	}
	for _, id := range ids {
		if run.ackAt[id] > ci.cut {
			continue
		}
		code, _, er := submitLocal(t, h, run.specs[id])
		if code != http.StatusConflict || er.Code != CodeDuplicate {
			fail("acked batch %q resubmitted: %d %+v, want 409 duplicate", id, code, er)
		}
		if v := run.verdict[id]; er.Digest != v.digest || er.Applied != v.applied {
			fail("acked batch %q verdict drifted: acked %+v, now applied=%d digest=%s", id, v, er.Applied, er.Digest)
		}
	}
	for _, id := range run.journal {
		if run.sentAt[id] > ci.cut || run.ackAt[id] <= ci.cut {
			continue
		}
		code, res, er := submitLocal(t, h, run.specs[id])
		switch {
		case code == http.StatusOK && res.Applied == int64(len(ids))+1:
		case code == http.StatusConflict && er.Code == CodeDuplicate && er.Applied > 0:
		default:
			fail("in-flight batch %q resubmitted: %d %+v %+v, want 200 or 409 with a verdict", id, code, res, er)
		}
		if _, after := journalOf(srv); countOf(after, id) != 1 {
			fail("in-flight batch %q applied %d times after resolution", id, countOf(after, id))
		}
	}
}

func countOf(ids []string, id string) (n int) {
	for _, x := range ids {
		if x == id {
			n++
		}
	}
	return n
}

// TestCrashStates records runs of a durable tenant through a memFS and
// recovers every state a crash may leave (see memFS for the model),
// checking each with checkCrashState, under every fsync policy. The runs
// cover appends, segment rotation, snapshot publish and truncation; the
// repair run starts from a state whose last record is torn, so Recover
// cuts the tail back, the run appends after the cut, and a second crash
// lands anywhere in that. The data directory exists before the run: a
// first boot that creates it never fsyncs its entry in the parent, a
// known bug under which a machine crash can lose every acked batch
// (ROADMAP item 21), so the empty-root case is left out until that is
// mended.
func TestCrashStates(t *testing.T) {
	dataDir := []*node{{dir: map[string]int{"data": 1}}, {dir: map[string]int{}}}
	specs := map[string]*Batch{}
	for _, policy := range []wal.Policy{wal.FsyncAlways, wal.FsyncGroup, wal.FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			run := recordRun(t, policy, dataDir, specs, crashBatches("b", 12), 3, 8)
			var cov crashCoverage
			var torn []*node
			n := run.fs.crashImages(run.epoch, func(ci crashImage) bool {
				checkCrashState(t, run, ci)
				before := cov.tornTail
				cov.add(ci.nodes)
				if cov.tornTail > before {
					torn = ci.nodes // the repair run starts from the last
				}
				return !t.Failed()
			})
			t.Logf("%s: %d recorded calls, %d distinct crash states; coverage %+v",
				policy, len(run.fs.ops), n, cov)
			if cov.partialTemp == 0 || cov.coveredSegs == 0 || cov.tornTail == 0 || cov.multiSegments == 0 {
				t.Fatalf("enumeration missed a crash shape: %+v", cov)
			}
			if policy != wal.FsyncAlways {
				return
			}

			t.Run("repair", func(t *testing.T) {
				run := recordRun(t, policy, torn, specs, crashBatches("r", 5), 2)
				if !slices.ContainsFunc(run.fs.ops, func(op fsOp) bool { return op.kind == opTrunc && op.size > 0 }) {
					t.Fatal("the repair run never cut a torn tail back")
				}
				n := run.fs.crashImages(run.epoch, func(ci crashImage) bool {
					checkCrashState(t, run, ci)
					return !t.Failed()
				})
				t.Logf("repair: %d recorded calls, %d distinct crash states", len(run.fs.ops), n)
			})
		})
	}
}

// crashMoments are the moments of the journal protocol a crash can fall
// at, in protocol order. Each is named by the call that dies: the n-th
// call of kind on a file whose name starts with prefix or, with next,
// the call after it.
var crashMoments = []struct {
	name   string
	kind   opKind
	prefix string
	next   bool
}{
	// Before a record's bytes reach the segment: the batch is lost,
	// which is safe, as it was never acked.
	{"wal.append.before", opWrite, "wal-", false},
	// The record written, not synced: the batch was never acked, and
	// after the restart its retry gets the verdict recovery replayed.
	{"wal.append.after", opWrite, "wal-", true},
	// The snapshot temp written, not synced: recovery ignores it and
	// falls back to the previous snapshot and journal.
	{"wal.snapshot.mid", opWrite, ".snap-", true},
	// The temp complete and synced, not yet renamed into place.
	{"wal.snapshot.rename.before", opRename, ".snap-", false},
	// The snapshot published, the segments it covers still there:
	// recovery tolerates records older than the snapshot.
	{"wal.snapshot.rename.after", opRename, ".snap-", true},
	// Before the first covered segment is removed.
	{"wal.truncate.before", opUnlink, "wal-", false},
}

// diesAt picks, for memFS.dieWhen, the n-th call of kind on a file whose
// name starts with prefix or, with next, the call after it.
func diesAt(kind opKind, prefix string, next bool, n int) func(fsOp) bool {
	seen, armed := 0, false
	return func(op fsOp) bool {
		if armed {
			return true
		}
		if op.kind == kind && strings.HasPrefix(op.name, prefix) {
			if seen++; seen == n {
				armed = next
				return !next
			}
		}
		return false
	}
}

// soakLedger is what the soak's clients were told, shared by their
// goroutines.
type soakLedger struct {
	mu      sync.Mutex
	specs   map[string]*Batch
	acked   map[string]ack
	pending map[string]bool // sent, outcome unknown: the death may have kept its record
}

// TestCrashRecoverySoak crash-restarts a durable tenant under concurrent
// load at every crash moment, under fsync=always. Each of three rounds
// boots a server on a memFS holding what the previous round left,
// checks it against every ack handed out so far, resolves the batches
// the previous death left in flight, and lets three clients submit
// until the file system dies at the moment (a later occurrence each
// round): that call and every later one fail, and what the calls before
// it wrote is what the next round boots from.
//
// While the clients run, no fresh ID may get a 409, and every batch
// sent after the death gets 503 journal_error, never an ack. A batch
// refused that way is not applied in memory (not journaled ⇒ not
// applied), and the next restart agrees: it recovers the dead server's
// journal plus at most batches the death left in flight, each of which
// its retry resolves exactly once.
func TestCrashRecoverySoak(t *testing.T) {
	dataDir := []*node{{dir: map[string]int{"data": 1}}, {dir: map[string]int{}}}
	const rounds, clients, perClient = 3, 3, 20
	for mi, moment := range crashMoments {
		t.Run(moment.name, func(t *testing.T) {
			l := &soakLedger{specs: map[string]*Batch{}, acked: map[string]ack{}, pending: map[string]bool{}}
			image := dataDir
			var live []string // the journal the dead server held in memory
			var sent atomic.Int64
			for round := 0; ; round++ {
				m := newMemFS(image)
				cfg := crashConfig(wal.FsyncAlways, m)
				cfg.SnapshotEvery = 5
				srv := NewServer(cfg)
				if _, err := srv.RecoverTenants(); err != nil {
					t.Fatalf("round %d: boot recovery: %v", round, err)
				}
				_, ids := journalOf(srv)
				if len(ids) < len(live) || !slices.Equal(ids[:len(live)], live) {
					t.Fatalf("round %d: recovered %v, the dead server had applied %v", round, ids, live)
				}
				for _, id := range ids[len(live):] {
					if !l.pending[id] {
						t.Fatalf("round %d: recovered %q, which was neither applied nor in flight at the death", round, id)
					}
				}
				checkSoakLedger(t, srv, l)
				resolvePending(t, srv, l)
				if round == rounds {
					checkSoakLedger(t, srv, l)
					if err := srv.CloseJournals(); err != nil {
						t.Fatal(err)
					}
					return
				}

				n := round + 1
				if moment.kind == opWrite && moment.prefix == "wal-" {
					n = round*9 + 4
				}
				m.dieWhen(diesAt(moment.kind, moment.prefix, moment.next, n))
				h := srv.Handler()
				refused := map[string]bool{}
				var crashed atomic.Bool
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < perClient && !crashed.Load(); i++ {
							k := sent.Add(1)
							b := mixedBatch(fmt.Sprintf("m%d-b%d", mi, k), k%13+1)
							l.mu.Lock()
							l.specs[b.ID] = b
							l.pending[b.ID] = true
							l.mu.Unlock()
							dead := m.isDead()
							code, res, er := submitLocal(t, h, b)
							journalErr := code == http.StatusServiceUnavailable && er.Code == CodeJournal
							switch {
							case dead && !journalErr:
								t.Errorf("%s sent after the file system died: %d %+v %+v, want 503 journal_error", b.ID, code, res, er)
							case code == http.StatusOK:
								l.mu.Lock()
								l.acked[b.ID] = ack{digest: res.Digest, applied: res.Applied}
								delete(l.pending, b.ID)
								l.mu.Unlock()
							case journalErr:
								if !m.isDead() {
									t.Errorf("%s: journal error while the file system lives: %+v", b.ID, er)
								}
								l.mu.Lock()
								refused[b.ID] = true
								l.mu.Unlock()
								crashed.Store(true)
							case code == http.StatusConflict:
								t.Errorf("fresh id %s got 409: %+v", b.ID, er)
							}
						}
					}()
				}
				wg.Wait()
				srv.CloseJournals() // fails: the file system is dead
				if t.Failed() {
					t.FailNow()
				}
				if !m.isDead() {
					t.Fatalf("round %d never reached %s (occurrence %d) in %d recorded calls", round, moment.name, n, m.count())
				}

				tn, now := journalOf(srv)
				for _, id := range now {
					if refused[id] {
						t.Fatalf("round %d: %q was refused with a journal error yet applied in memory", round, id)
					}
				}
				tn.mu.Lock()
				applied, digest := tn.applied, rec.FormatDigest(tn.digest)
				tn.mu.Unlock()
				if want := oracleReplay(t, DefaultSchema(), l.specs, now); applied != int64(len(now)) || digest != want {
					t.Fatalf("round %d: the dead server holds applied=%d digest=%s, its %d-batch journal replays to %s",
						round, applied, digest, len(now), want)
				}
				t.Logf("round %d: died at %s (occurrence %d) after %d calls; %d applied, %d refused",
					round, moment.name, n, m.count(), len(now), len(refused))
				live, image = now, m.image()
			}
		})
	}
}

// checkSoakLedger holds a recovered server to every ack the soak's
// clients got: the journal holds each ID once, the served state is the
// sequential oracle's over it, and every acked batch sits at the journal
// position its verdict names, with the oracle's digest there, and its
// resubmission answers 409 with that verdict.
func checkSoakLedger(t *testing.T, srv *Server, l *soakLedger) {
	t.Helper()
	tn, ids := journalOf(srv)
	if tn == nil {
		if len(l.acked) != 0 {
			t.Fatalf("the restart lost the tenant with %d acked batches", len(l.acked))
		}
		return
	}
	for _, id := range ids {
		if countOf(ids, id) != 1 {
			t.Fatalf("journal holds %q %d times", id, countOf(ids, id))
		}
	}
	oracle := oracleDigests(t, l.specs, ids)
	tn.mu.Lock()
	applied, digest := tn.applied, rec.FormatDigest(tn.digest)
	tn.mu.Unlock()
	if applied != int64(len(ids)) || digest != oracle[len(ids)] {
		t.Fatalf("applied %d, digest %s; the %d-batch journal replays to %s", applied, digest, len(ids), oracle[len(ids)])
	}
	h := srv.Handler()
	for id, a := range l.acked {
		if a.applied > int64(len(ids)) || ids[a.applied-1] != id || oracle[a.applied] != a.digest {
			t.Fatalf("acked batch %q (%+v) lost or moved: the journal holds %d batches", id, a, len(ids))
		}
		code, _, er := submitLocal(t, h, l.specs[id])
		if code != http.StatusConflict || er.Code != CodeDuplicate || er.Digest != a.digest || er.Applied != a.applied {
			t.Fatalf("acked batch %q (%+v) resubmitted: %d %+v, want 409 duplicate with its verdict", id, a, code, er)
		}
	}
}

// resolvePending resubmits every batch a death left in flight: each must
// land exactly once, 409 with a verdict if its record survived, a fresh
// 200 if it never reached the journal.
func resolvePending(t *testing.T, srv *Server, l *soakLedger) {
	t.Helper()
	h := srv.Handler()
	for id := range l.pending {
		code, res, er := submitLocal(t, h, l.specs[id])
		switch {
		case code == http.StatusOK:
			l.acked[id] = ack{digest: res.Digest, applied: res.Applied}
		case code == http.StatusConflict && er.Code == CodeDuplicate && er.Applied > 0:
			l.acked[id] = ack{digest: er.Digest, applied: er.Applied}
		default:
			t.Fatalf("in-flight batch %q resubmitted: %d %+v, want 200 or 409 with a verdict", id, code, er)
		}
		if _, ids := journalOf(srv); countOf(ids, id) != 1 {
			t.Fatalf("in-flight batch %q applied %d times after its retry", id, countOf(ids, id))
		}
		delete(l.pending, id)
	}
}
