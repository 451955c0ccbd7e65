package spec_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fsio"
	"repro/internal/spec"
)

// FuzzLoadSpec: arbitrary bytes never panic the spec loader, a rejection
// is a typed *fsio.FrameError that leaves the cache empty, and an accepted
// spec survives a save and reload.
func FuzzLoadSpec(f *testing.F) {
	good := saveSample(f)
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[len(good)/2:])
	f.Add(format2())
	f.Add(artifact(concreteByte, 1, 1, 'k', alwaysByte))
	f.Add(artifact(abstractByte, 1, 1, 'k', 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := spec.New(spec.Abstract, false)
		if err := c.Load(bytes.NewReader(data)); err != nil {
			var fe *fsio.FrameError
			if !errors.As(err, &fe) {
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
