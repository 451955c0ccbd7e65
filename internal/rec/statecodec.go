package rec

import "repro/internal/state"

// EncodeState renders a full shared-state snapshot in the trace format's
// inline value encoding (sorted locations, no string table) — the same
// bytes the trace header carries for its initial-state snapshot, exposed
// so other durable artifacts (the serving layer's tenant snapshots in
// internal/wal) can reuse one audited codec instead of inventing a
// second state serialization. Returns a typed error for values with no
// trace encoding.
func EncodeState(st *state.State) ([]byte, error) {
	e := newEnc(true)
	locs := st.Locs()
	e.u(uint64(len(locs)))
	for _, l := range locs {
		v, _ := st.Get(l)
		if err := encodableValue(v); err != nil {
			return nil, err
		}
		e.str(string(l))
		e.value(v)
	}
	return e.buf, nil
}

// DecodeState parses an EncodeState payload. Malformed input yields a
// typed *TraceError (never a panic), matching the trace decoder's
// contract.
func DecodeState(buf []byte) (st *state.State, err error) {
	defer func() {
		if p := recover(); p != nil {
			st, err = nil, traceErr(TraceBadRecord, "panic decoding state: %v", p)
		}
	}()
	d := &dec{buf: buf, inline: true}
	n := d.u()
	if n > uint64(len(d.buf)-d.pos) {
		d.fail(TraceBadRecord, "location count %d exceeds payload", n)
		return nil, d.err
	}
	st = d.locations(n)
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.buf) {
		return nil, traceErr(TraceBadRecord, "%d trailing bytes after state snapshot", len(d.buf)-d.pos)
	}
	return st, nil
}
