package rec

import (
	"repro/internal/fsio"
	"repro/internal/state"
)

// EncodeState renders a full shared-state snapshot in the trace format's
// inline value encoding (sorted locations, no string table) — the same
// bytes the trace header carries for its initial-state snapshot, exposed
// so other durable artifacts (the serving layer's tenant snapshots in
// internal/wal) can reuse one audited codec instead of inventing a
// second state serialization. Returns a typed error for values with no
// trace encoding.
func EncodeState(st *state.State) ([]byte, error) {
	e := newEnc(true)
	if err := e.state(st); err != nil {
		return nil, err
	}
	return e.buf, nil
}

// DecodeState parses an EncodeState payload. Malformed input yields a
// typed *fsio.FrameError (never a panic), matching the trace decoder's
// contract.
func DecodeState(buf []byte) (st *state.State, err error) {
	defer func() {
		if p := recover(); p != nil {
			st, err = nil, fsio.Errorf(fsio.BadRecord, "panic decoding state: %v", p)
		}
	}()
	d := dec{Reader: fsio.NewReader(buf), inline: true}
	st = d.locations(d.Count("location"))
	if err := d.Done(); err != nil {
		return nil, err
	}
	return st, nil
}
