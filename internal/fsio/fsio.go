// Package fsio holds the repo's one atomic-publish idiom: write into a
// temp file in the target's directory, fsync the data, chmod it to the
// world-readable mode a plainly created file would get (CreateTemp makes
// 0600, which breaks cross-user deployments), close, rename into place,
// and fsync the parent directory so the rename itself is durable. A
// crash or full disk at any point leaves either the old artifact or the
// new one at the published path — never a torn file.
//
// janus-train's spec artifacts, the flight-recorder dumps, and the
// serving layer's durable snapshots all publish through this package;
// before it existed each carried its own (subtly different) copy of the
// idiom.
//
// The package also holds the one binary framing those artifacts share
// (frame.go): a magic + format header, CRC32-checked length-prefixed
// frames, a bounds-checked payload Reader, and one typed *FrameError.
package fsio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Atomic is an in-progress atomic write: a temp file that becomes the
// published artifact at Publish and vanishes on Abort. The zero value is
// not usable; build one with NewAtomic.
type Atomic struct {
	f    *os.File
	path string
	done bool
}

// NewAtomic opens a temp file in path's directory. Exactly one of
// Publish or Abort must follow; Abort after Publish is a no-op, so
// `defer a.Abort()` is the safe idiom.
func NewAtomic(path string) (*Atomic, error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("fsio: creating temp for %s: %w", path, err)
	}
	return &Atomic{f: f, path: path}, nil
}

// Write appends to the temp file; Atomic implements io.Writer.
func (a *Atomic) Write(p []byte) (int, error) { return a.f.Write(p) }

// File exposes the underlying temp file for callers that need more than
// io.Writer (e.g. io.ReaderFrom fast paths). The caller must not close
// or rename it.
func (a *Atomic) File() *os.File { return a.f }

// Publish makes the write durable and visible: chmod 0644, fsync, close,
// rename onto the target path, and fsync the parent directory. On error
// the temp file is removed and the target path is untouched.
func (a *Atomic) Publish() error {
	if a.done {
		return fmt.Errorf("fsio: publish of %s after completion", a.path)
	}
	a.done = true
	fail := func(err error) error {
		a.f.Close()
		os.Remove(a.f.Name())
		return err
	}
	// The published artifact must be world-readable like a plainly
	// created file; CreateTemp made it 0600.
	if err := a.f.Chmod(0o644); err != nil {
		return fail(fmt.Errorf("fsio: chmod %s: %w", a.path, err))
	}
	if err := a.f.Sync(); err != nil {
		return fail(fmt.Errorf("fsio: fsync %s: %w", a.path, err))
	}
	if err := a.f.Close(); err != nil {
		return fail(fmt.Errorf("fsio: close %s: %w", a.path, err))
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("fsio: publishing %s: %w", a.path, err)
	}
	SyncDir(filepath.Dir(a.path))
	return nil
}

// Abort discards the temp file. Safe after Publish (no-op) and safe to
// defer unconditionally.
func (a *Atomic) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}

// SyncDir fsyncs a directory so a just-renamed entry survives a machine
// crash. Best-effort: some filesystems refuse directory fsync, and the
// rename is already atomic for process-level crashes.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// WriteAtomicFunc publishes whatever fn writes, atomically.
func WriteAtomicFunc(path string, fn func(io.Writer) error) error {
	a, err := NewAtomic(path)
	if err != nil {
		return err
	}
	defer a.Abort()
	if err := fn(a); err != nil {
		return err
	}
	return a.Publish()
}
