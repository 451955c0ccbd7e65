package fsio

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzNextFrame: a framed payload reads back whole, and arbitrary bytes
// walked as frames, each payload read field by field, never panic and
// reject with a typed error.
func FuzzNextFrame(f *testing.F) {
	two := AppendFrame(AppendFrame(nil, []byte("payload")), []byte{0x96, 0x01, 0xff, 0x02})
	f.Add(two)
	f.Add([]byte{})
	f.Add(two[:5])
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add(AppendFrame(nil, make([]byte, 300)))
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(err error) {
			t.Helper()
			var fe *FrameError
			if err != nil && !errors.As(err, &fe) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
		}
		framed := AppendFrame(nil, data)
		payload, next, err := NextFrame(framed, 0)
		if err != nil || !bytes.Equal(payload, data) || next != len(framed) {
			t.Fatalf("frame of %d bytes read back as %d bytes, next %d of %d (%v)", len(data), len(payload), next, len(framed), err)
		}
		for off := 0; off < len(data); off = next {
			payload, next, err = NextFrame(data, off)
			if err != nil {
				typed(err)
				return
			}
			if next <= off || next > len(data) {
				t.Fatalf("frame at %d ends at %d of %d", off, next, len(data))
			}
			r := NewReader(payload)
			for r.Err() == nil && r.Remaining() > 0 {
				switch r.Byte() % 5 {
				case 0:
					r.Uvarint()
				case 1:
					r.Varint()
				case 2:
					r.Bytes(r.Uvarint())
				case 3:
					r.U64LE()
				case 4:
					_ = make([]byte, r.Count("element"))
				}
			}
			typed(r.Done())
		}
	})
}
