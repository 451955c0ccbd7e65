package janus

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/oplog"
)

// oracleState is the store the config-matrix tasks run over. Every
// location name contains '#', the separator of a rendered projection
// location, so every cell fails if some layer recovers a location by
// parsing a rendering.
func oracleState() *State {
	st := NewState()
	InitCounter(st, "sum#1", 0)
	InitCounter(st, "ident#2", 0)
	InitCounter(st, "max#3", 0)
	InitBoolVar(st, "flag#x", false)
	InitBitSet(st, "bits#*")
	InitKVMap(st, "map#k=0")
	InitStack(st, "stack#top")
	return st
}

// oracleTask mixes the patterns the detectors are told apart by:
// a reduction, an identity, a read whose value decides a write, equal
// writes, relational updates and, for ordered runs only, a push whose
// position depends on the commit order. Without the push every serial
// order reaches one final state, so an unordered run must equal the
// sequential one too.
func oracleTask(i int, ordered bool) Task {
	return func(ex Executor) error {
		if err := (Counter{L: "sum#1"}).Add(ex, int64(i)); err != nil {
			return err
		}
		ident := Counter{L: "ident#2"}
		if err := ident.Add(ex, int64(i)); err != nil {
			return err
		}
		if err := ident.Sub(ex, int64(i)); err != nil {
			return err
		}
		// Yield so attempts overlap on a host with fewer cores than workers.
		runtime.Gosched()
		m := Counter{L: "max#3"}
		cur, err := m.Load(ex)
		if err != nil {
			return err
		}
		if v := int64(i * 7 % 13); v > cur {
			if err := m.Store(ex, v); err != nil {
				return err
			}
		}
		flag := BoolVar{L: "flag#x"}
		if err := flag.Store(ex, true); err != nil {
			return err
		}
		if _, err := flag.Load(ex); err != nil {
			return err
		}
		if err := (BitSet{L: "bits#*"}).Set(ex, i%8); err != nil {
			return err
		}
		key := strconv.Itoa(i % 5)
		if err := (KVMap{L: "map#k=0"}).Put(ex, key, "v"+key); err != nil {
			return err
		}
		if ordered {
			return Stack{L: "stack#top"}.Push(ex, int64(i))
		}
		return nil
	}
}

// orderSink is a CommitSink that checks commits arrive in strictly
// increasing commit time.
type orderSink struct {
	commits int
	last    int64
	err     error
}

func (s *orderSink) ObserveCommitted(_ int, commitTime int64, _ oplog.Log) {
	if commitTime <= s.last && s.err == nil {
		s.err = fmt.Errorf("commit time %d after %d", commitTime, s.last)
	}
	s.last = commitTime
	s.commits++
}

// TestConfigMatrixMatchesSequential is Theorem 4.1 over every live Config
// combination: {Run, RunInOrder} × each detection variant × Backoff on/off
// × Record and Trace on/off, each run against Sequential. Backoff must
// sleep once per retry, the sink must see every commit in commit-time
// order, and the trace must hold one task span per commit.
func TestConfigMatrixMatchesSequential(t *testing.T) {
	const n = 24
	variants := []struct {
		name  string
		cfg   Config
		train bool
	}{
		{"write-set", Config{Detection: DetectWriteSet}, false},
		{"sequence", Config{}, true},
		{"learn-online", Config{LearnOnline: true}, false},
		// Untrained: every pair misses the cache and falls back to
		// write-set, so the detector's safe-WAW inference (the
		// commit-order rule) is all that admits a conflicting pair.
		{"infer-waw", Config{}, false},
		{"no-abstraction", Config{DisableAbstraction: true}, true},
		// Every task stores the same flag, so tolerating its conflicts
		// cannot move the final state.
		{"relax", Config{Relax: NewRelaxations([]Loc{"flag#x"}, []Loc{"flag#x"})}, true},
	}
	for _, ordered := range []bool{false, true} {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = oracleTask(i+1, ordered)
		}
		want, err := Sequential(oracleState(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			for _, backoff := range []bool{false, true} {
				for _, observed := range []bool{false, true} {
					name := fmt.Sprintf("ordered=%v/%s/backoff=%v/record+trace=%v", ordered, v.name, backoff, observed)
					t.Run(name, func(t *testing.T) {
						cfg := v.cfg
						cfg.Threads = 4
						if backoff {
							cfg.Backoff = Backoff{Base: 5 * time.Microsecond}
						}
						sink := &orderSink{}
						if observed {
							cfg.Record = sink
							cfg.Trace = NewTrace(0)
						}
						r := New(cfg)
						if v.train {
							if err := r.Train(oracleState(), tasks[:4]); err != nil {
								t.Fatal(err)
							}
						}
						run := r.Run
						if ordered {
							run = r.RunInOrder
						}
						got, stats, err := run(oracleState(), tasks)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Equal(want) {
							t.Fatalf("final state %s, sequential %s", got, want)
						}
						if stats.Run.Commits != n {
							t.Fatalf("commits = %d, want %d", stats.Run.Commits, n)
						}
						if backoff && stats.Run.BackoffWaits != stats.Run.Retries {
							t.Fatalf("backoff waits = %d, retries = %d: want one wait per retry",
								stats.Run.BackoffWaits, stats.Run.Retries)
						}
						if !observed {
							return
						}
						if sink.err != nil || sink.commits != n {
							t.Fatalf("sink saw %d commits (%v), want %d in commit-time order", sink.commits, sink.err, n)
						}
						if spans := cfg.Trace.Count(obs.EvTask); spans != n {
							t.Fatalf("trace holds %d task spans, want %d", spans, n)
						}
					})
				}
			}
		}
	}
}
