package cache_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/spec"
)

// FuzzLoadSpec: arbitrary bytes never panic the spec loader, a rejection
// is a typed *spec.SpecError that leaves the cache empty, and an accepted spec
// survives a save and reload.
func FuzzLoadSpec(f *testing.F) {
	good := saveSample(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte("not json"))
	f.Add([]byte(`{"magic":"JANUS-SPEC","format":2,"mode":"abstract","crc32":1,"payload":{"entries":{}}}`))
	f.Add([]byte(`{"format":1,"mode":"abstract","entries":{"num.add|num.add":"always"}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := spec.New(spec.Abstract, false)
		if err := c.Load(bytes.NewReader(data)); err != nil {
			var se *spec.SpecError
			if !errors.As(err, &se) {
				t.Fatalf("untyped load error %T: %v", err, err)
			}
			if c.Len() != 0 {
				t.Fatalf("rejected spec left %d entries", c.Len())
			}
			return
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again := spec.New(spec.Abstract, false)
		if err := again.Load(&buf); err != nil || again.Dump() != c.Dump() {
			t.Fatalf("saved spec reloads as %q (%v), want %q", again.Dump(), err, c.Dump())
		}
	})
}
