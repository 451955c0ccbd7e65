package rec

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fsio"
)

// FuzzReadTrace drives the decoder with arbitrary bytes: it must never
// panic, and every rejection must be a typed *fsio.FrameError — the CLI
// depends on that contract to report a reason for every bad artifact.
func FuzzReadTrace(f *testing.F) {
	base := validTrace(f)
	f.Add(base)
	f.Add([]byte{})
	f.Add([]byte(traceMagic))
	f.Add(fsio.AppendHeader(nil, traceMagic, traceFormat))
	// The previous format's header in front of a current body: refused by
	// version before any payload is read.
	prev := append([]byte(nil), base...)
	prev[len(traceMagic)] = traceFormat - 1
	f.Add(prev)
	// A few targeted mutants seed interesting paths: flipped header
	// byte, truncations at frame boundaries, doubled tail.
	for _, cut := range []int{1, len(base) / 2, len(base) - 1} {
		f.Add(base[:cut])
	}
	mut := append([]byte(nil), base...)
	mut[12] ^= 0x40
	f.Add(mut)
	f.Add(append(append([]byte(nil), base...), base...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			var terr *fsio.FrameError
			if !errors.As(err, &terr) {
				t.Fatalf("untyped decode error %T: %v", err, err)
			}
			return
		}
		// Accepted traces must be internally consistent enough to walk.
		for _, txn := range tr.Txns {
			if len(txn.Observed) != len(txn.Ops) {
				t.Fatalf("accepted trace with %d ops but %d observed values",
					len(txn.Ops), len(txn.Observed))
			}
		}
		// And re-encoding decisions downstream (replay) must not panic
		// either; errors are fine.
		_, _ = tr.ReplaySequential()
	})
}

// FuzzValueRoundTrip pushes arbitrary strings/ints through the op+value
// codec via a synthetic chunk: encode a txn record holding them, decode,
// and require exact round-trip.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add("loc", "payload", int64(42))
	f.Add("", "", int64(0))
	f.Add("a\x00b", "\xff\xfe", int64(-1))
	f.Add("日本語", "naïve", int64(1<<62))

	f.Fuzz(func(t *testing.T, loc, s string, n int64) {
		e := &enc{tab: map[string]uint64{}}
		e.str(loc)
		e.i(n)
		e.str(s)
		e.str(loc) // backref path
		d := &dec{Reader: fsio.NewReader(e.buf)}
		if got := d.str(); got != loc {
			t.Fatalf("str round-trip: %q != %q", got, loc)
		}
		if got := d.Varint(); got != n {
			t.Fatalf("int round-trip: %d != %d", got, n)
		}
		if got := d.str(); got != s {
			t.Fatalf("str round-trip: %q != %q", got, s)
		}
		if got := d.str(); got != loc {
			t.Fatalf("backref round-trip: %q != %q", got, loc)
		}
		if err := d.Done(); err != nil {
			t.Fatalf("decoder error on own encoding: %v", err)
		}
	})
}
