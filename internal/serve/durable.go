package serve

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	janus "repro"
	"repro/internal/fsio"
	"repro/internal/rec"
	"repro/internal/stm"
	"repro/internal/wal"
)

// duplicateError refuses a batch ID that is already applied, carrying
// the original verdict: where the batch landed in the journal and the
// state digest its commit produced. The 409 reply forwards both, so a
// client retrying an acked-then-crashed submission can confirm its
// batch took effect exactly once — across restarts, because the seen
// index is durable.
type duplicateError struct {
	id     string
	seq    uint64
	digest uint64
}

func (e *duplicateError) Error() string {
	return fmt.Sprintf("serve: batch id %q already applied as journal seq %d", e.id, e.seq)
}

// journalError wraps a WAL append failure on the submit path: the batch
// ran but was not journaled, therefore not applied and not acked.
type journalError struct{ err error }

func (e *journalError) Error() string { return e.err.Error() }
func (e *journalError) Unwrap() error { return e.err }

// validateTenantName rejects names that cannot double as a directory
// entry under the data dir (or a flight-dump filename): path
// separators, "..", leading dots, and unprintable or absurdly long
// names. Enforced whether or not durability is on, so a tenant created
// in-memory today can be served durably tomorrow.
func validateTenantName(name string) error {
	if name == "" {
		return fmt.Errorf("tenant required (X-Janus-Tenant header or ?tenant=)")
	}
	if len(name) > 128 {
		return fmt.Errorf("tenant name longer than 128 bytes")
	}
	if name[0] == '.' {
		return fmt.Errorf("tenant name may not start with '.'")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("tenant name may only contain letters, digits, '-', '_', '.'")
		}
	}
	if strings.Contains(name, "..") {
		return fmt.Errorf("tenant name may not contain \"..\"")
	}
	return nil
}

// tenantDir is where one tenant's journal lives.
func (s *Server) tenantDir(name string) string {
	return filepath.Join(s.cfg.DataDir, name)
}

// recoverTenant rebuilds a tenant from its journal directory before it
// serves its first request: open (or create) the WAL, load the newest
// valid snapshot, replay the journal suffix through the sequential
// oracle verifying each record's digest, and rebuild the exactly-once
// seen index. It returns the recovered state, st itself when the
// journal is empty. A journal that cannot be recovered honestly
// (sequence gap, digest mismatch, undecodable batch) fails tenant
// creation — the server refuses to serve a state it cannot prove.
func (s *Server) recoverTenant(t *tenant, st *janus.State) (*janus.State, error) {
	l, rcv, err := wal.Recover(s.tenantDir(t.name), wal.Options{
		Policy:        s.cfg.Fsync,
		GroupInterval: s.cfg.FsyncInterval,
		SegmentBytes:  s.cfg.SegmentBytes,
		FS:            s.cfg.fs,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: recovering tenant %q: %w", t.name, err)
	}
	t.recTruncations = int64(rcv.Truncations)
	t.recBadSnaps = int64(rcv.BadSnapshots)

	if snap := rcv.Snapshot; snap != nil {
		snapSt, derr := rec.DecodeState(snap.State)
		if derr != nil {
			l.Close()
			return nil, fmt.Errorf("serve: tenant %q snapshot state: %w", t.name, derr)
		}
		if got := rec.Digest(snapSt); got != snap.Digest {
			l.Close()
			return nil, fmt.Errorf("serve: tenant %q snapshot digest mismatch: state %s, recorded %s",
				t.name, rec.FormatDigest(got), rec.FormatDigest(snap.Digest))
		}
		st = snapSt
		t.applied = int64(snap.Seq)
		// Snapshot seen tables are sorted by seq, so appending preserves
		// journal order for the retention window.
		for _, e := range snap.Seen {
			t.seen[e.ID] = appliedBatch{seq: e.Seq, digest: e.Digest}
			t.seenOrder = append(t.seenOrder, seenAt{id: e.ID, seq: e.Seq})
		}
		t.lastSnap.Store(snap.Seq)
	}

	// Replay the suffix through the sequential oracle. Each record's
	// digest was computed at commit time from the parallel run's final
	// state; sequential replay must land on the same digest (that
	// equivalence is the system's core correctness claim), so a mismatch
	// means the journal does not reproduce the acked state — refuse. st
	// is this recovery's own (a fresh initial state or a decoded
	// snapshot), and a failure discards it, so each record replays on it
	// in place rather than on a copy. One frame parses and compiles every
	// record: ApplySequential is done with a record's tasks when it returns.
	f := takeFrame(s.schIdx)
	defer f.release()
	for _, r := range rcv.Records {
		b, perr := f.parse(r.Payload)
		if perr != nil {
			l.Close()
			return nil, fmt.Errorf("serve: tenant %q journal seq %d: decoding batch: %w", t.name, r.Seq, perr)
		}
		tasks, aerr := f.compile(b)
		if aerr == nil {
			aerr = stm.ApplySequential(st, tasks)
		}
		if aerr != nil {
			l.Close()
			return nil, fmt.Errorf("serve: tenant %q journal seq %d: replaying batch %q: %w", t.name, r.Seq, b.ID, aerr)
		}
		if got := rec.Digest(st); got != r.Digest {
			l.Close()
			return nil, fmt.Errorf("serve: tenant %q journal seq %d: replay digest %s, journal recorded %s",
				t.name, r.Seq, rec.FormatDigest(got), rec.FormatDigest(r.Digest))
		}
		t.applied = int64(r.Seq)
		t.seen[r.ID] = appliedBatch{seq: r.Seq, digest: r.Digest}
		t.seenOrder = append(t.seenOrder, seenAt{id: r.ID, seq: r.Seq})
	}
	// A restart rebuilds exactly the live index, including its bound.
	t.evictSeenLocked()
	t.wal = l
	return st, nil
}

// maybeSnapshot kicks a background snapshot + truncate once enough
// batches have accumulated past the last one. At most one snapshot per
// tenant runs at a time; the append path never waits on it.
func (t *tenant) maybeSnapshot() {
	if t.wal == nil || t.snapEvery <= 0 {
		return
	}
	t.mu.Lock()
	seq := uint64(t.applied)
	t.mu.Unlock()
	if seq < t.lastSnap.Load()+uint64(t.snapEvery) {
		return
	}
	if !t.snapBusy.CompareAndSwap(false, true) {
		return
	}
	t.snapWG.Add(1)
	go func() {
		defer t.snapWG.Done()
		defer t.snapBusy.Store(false)
		if err := t.writeSnapshotNow(); err != nil {
			t.snapErrs.Add(1)
		}
	}()
}

// writeSnapshotNow captures the committed state and seen index and
// publishes them as a snapshot, truncating covered journal segments. The
// capture holds the gate, so the store holds exactly the state of the
// last applied batch; the encoding and writing run after it is released.
func (t *tenant) writeSnapshotNow() error {
	if err := t.acquire(context.Background()); err != nil {
		return err
	}
	st := t.store.State()
	t.mu.Lock()
	digest, seq := t.digest, uint64(t.applied)
	seen := make([]wal.SeenEntry, 0, len(t.seen))
	for id, ab := range t.seen {
		seen = append(seen, wal.SeenEntry{ID: id, Seq: ab.seq, Digest: ab.digest})
	}
	t.mu.Unlock()
	t.release()
	if seq <= t.lastSnap.Load() {
		return nil
	}
	sort.Slice(seen, func(i, j int) bool { return seen[i].Seq < seen[j].Seq })
	enc, err := rec.EncodeState(st)
	if err != nil {
		return fmt.Errorf("serve: encoding snapshot state: %w", err)
	}
	snap := wal.Snapshot{Seq: seq, Digest: digest, State: enc, Seen: seen}
	if err := t.wal.WriteSnapshot(snap); err != nil {
		return fmt.Errorf("serve: writing snapshot: %w", err)
	}
	t.lastSnap.Store(seq)
	t.snapshots.Add(1)
	return nil
}

// RecoverTenants eagerly opens every tenant directory already present
// under the data dir, so a restarted server proves all its journals at
// boot (and fails loudly) instead of on each tenant's first request.
// Returns the recovered tenant names.
func (s *Server) RecoverTenants() ([]string, error) {
	if s.cfg.DataDir == "" {
		return nil, nil
	}
	entries, err := readTenantDirs(s.cfg.fs, s.cfg.DataDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, name := range entries {
		if validateTenantName(name) != nil {
			continue // not a tenant dir (stray file, hidden dir)
		}
		t, terr := s.tenantFor(name)
		if terr != nil {
			return names, terr
		}
		if t == nil {
			return names, fmt.Errorf("serve: tenant table full recovering %q", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// readTenantDirs lists the subdirectory names under the data dir; an
// absent data dir is an empty deployment, not an error.
func readTenantDirs(fsys fsio.FS, dataDir string) ([]string, error) {
	entries, err := fsys.ReadDir(dataDir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: scanning data dir: %w", err)
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			names = append(names, ent.Name())
		}
	}
	return names, nil
}

// CloseJournals waits for in-flight snapshots and closes every durable
// tenant's journal (a final sync, so a planned shutdown is durable
// under every fsync policy). Call after Drain.
func (s *Server) CloseJournals() error {
	s.mu.Lock()
	ts := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		ts = append(ts, t)
	}
	s.mu.Unlock()
	var firstErr error
	for _, t := range ts {
		if t.wal == nil {
			continue
		}
		t.snapWG.Wait()
		if err := t.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
