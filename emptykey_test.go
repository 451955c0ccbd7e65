package janus

import (
	"bytes"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/rec"
)

// emptyKeyState holds a map whose empty key is bound from the start.
func emptyKeyState() *State {
	st := NewState()
	m := adt.NewRelValue()
	m.R.Put("", "init")
	m.R.Put("a", "0")
	st.Set("m", m)
	return st
}

// emptyKeyTask writes, reads or removes the empty key of the map, or
// copies what it reads there to a key of its own.
func emptyKeyTask(i int) Task {
	return func(ex Executor) error {
		m := KVMap{L: "m"}
		switch i % 4 {
		case 0:
			return m.Put(ex, "", "v"+strconv.Itoa(i))
		case 1:
			v, _, err := m.Get(ex, "")
			if err != nil {
				return err
			}
			return m.Put(ex, "a"+strconv.Itoa(i), v)
		case 2:
			if _, err := m.Has(ex, ""); err != nil {
				return err
			}
			return m.Put(ex, "a", strconv.Itoa(i))
		default:
			return m.Remove(ex, "")
		}
	}
}

// TestEmptyKeyIsAKey: the empty string is a key of a relation like any
// other. Its projection location is (loc, ""), which detection, training's
// probes and the concrete commutativity judgment must read as that key's
// binding, never as the whole relation. Every detection variant, trained
// on these tasks where it trains, reaches the sequential state in order,
// and a recorded run replays to its recorded digest with every observed
// value checked.
func TestEmptyKeyIsAKey(t *testing.T) {
	const n = 24
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = emptyKeyTask(i)
	}
	want, err := Sequential(emptyKeyState(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name  string
		cfg   Config
		train bool
	}{
		{"write-set", Config{Detection: DetectWriteSet}, false},
		{"sequence", Config{}, true},
		{"learn-online", Config{LearnOnline: true}, false},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := v.cfg
			cfg.Threads = 4
			recorder := rec.New(rec.Meta{Workload: "empty-key", Detector: v.name, Ordered: true, Threads: 4, Tasks: n},
				emptyKeyState(), rec.Options{})
			cfg.Record = recorder
			r := New(cfg)
			if v.train {
				if err := r.Train(emptyKeyState(), tasks[:8]); err != nil {
					t.Fatal(err)
				}
			}
			got, _, err := r.RunInOrder(emptyKeyState(), tasks)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("final state %s, sequential %s", got, want)
			}
			recorder.Close(rec.Digest(got))
			var buf bytes.Buffer
			if _, err := recorder.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			tr, err := rec.ReadTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Lossy || len(tr.Txns) != n {
				t.Fatalf("trace lossy=%v with %d of %d transactions", tr.Lossy, len(tr.Txns), n)
			}
			replayed, _, err := tr.VerifySequential(nil)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if d := rec.Digest(replayed); d != tr.Digest || d != rec.Digest(want) {
				t.Fatalf("replay digest %016x, recorded %016x, sequential %016x", d, tr.Digest, rec.Digest(want))
			}
		})
	}
}
