// Package fsio holds the repo's one atomic-publish idiom: write into a
// temp file in the target's directory, fsync the data, close, rename
// into place, and fsync the parent directory so the rename itself is
// durable. A crash or full disk at any point leaves either the old
// artifact or the new one at the published path — never a torn file.
//
// `janus train`'s spec artifacts, the flight-recorder dumps, and the
// serving layer's durable snapshots all publish through this package;
// before it existed each carried its own (subtly different) copy of the
// idiom.
//
// Every file call the journal (internal/wal) and Atomic make goes
// through FS, so a test can record those calls and enumerate the states
// a crash may leave (DESIGN.md §13). OS is the one production FS.
//
// The package also holds the one binary framing those artifacts share
// (frame.go): a magic + format header, CRC32-checked length-prefixed
// frames, a bounds-checked payload Reader, and one typed *FrameError.
package fsio

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// FS is the file system the journal and Atomic write through: the calls
// whose order decides what a crash leaves on disk.
type FS interface {
	// Create creates or truncates name (mode 0644) and opens it for
	// appending.
	Create(name string) (File, error)
	// OpenAppend opens an existing file for appending.
	OpenAppend(name string) (File, error)
	Rename(oldname, newname string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	ReadFile(name string) ([]byte, error)
	// Mkdir creates one directory (mode 0755). The error wraps
	// fs.ErrExist when dir exists and fs.ErrNotExist when its parent
	// does not.
	Mkdir(dir string) error
	// SyncDir fsyncs a directory, making the creates, renames and
	// removes inside it durable.
	SyncDir(dir string) error
}

// File is an open file an FS hands out; *os.File is one.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
}

func (osFS) Rename(oldname, newname string) error      { return os.Rename(oldname, newname) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error    { return os.Truncate(name, size) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) ReadFile(name string) ([]byte, error)      { return os.ReadFile(name) }
func (osFS) Mkdir(dir string) error                    { return os.Mkdir(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// MkdirAll creates dir and its missing parents on fsys, and returns the
// directories it created, deepest first: the ones whose entries in their
// parents a caller must fsync before a machine crash can be trusted to
// keep them. An existing dir creates nothing.
func MkdirAll(fsys FS, dir string) ([]string, error) {
	err := fsys.Mkdir(dir)
	if errors.Is(err, fs.ErrExist) {
		return nil, nil
	}
	var created []string
	if parent := filepath.Dir(dir); errors.Is(err, fs.ErrNotExist) && parent != dir {
		if created, err = MkdirAll(fsys, parent); err != nil {
			return nil, err
		}
		err = fsys.Mkdir(dir)
	}
	if err != nil {
		return nil, err
	}
	return append([]string{dir}, created...), nil
}

// Atomic is an in-progress atomic write: a temp file that becomes the
// published artifact at Publish and vanishes on Abort. The zero value is
// not usable; build one with NewAtomic.
type Atomic struct {
	fsys      FS
	f         File
	tmp, path string
	done      bool
}

// NewAtomic creates a temp file in path's directory on fsys. Exactly one
// of Publish or Abort must follow; Abort after Publish is a no-op, so
// `defer a.Abort()` is the safe idiom. The temp's name starts with '.'
// and holds ".tmp", which is how a recovery scan knows it for debris.
func NewAtomic(fsys FS, path string) (*Atomic, error) {
	tmp := filepath.Join(filepath.Dir(path),
		"."+filepath.Base(path)+".tmp"+strconv.FormatUint(rand.Uint64(), 36))
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("fsio: creating temp for %s: %w", path, err)
	}
	return &Atomic{fsys: fsys, f: f, tmp: tmp, path: path}, nil
}

// Write appends to the temp file; Atomic implements io.Writer.
func (a *Atomic) Write(p []byte) (int, error) { return a.f.Write(p) }

// Publish makes the write durable and visible: fsync, close, rename onto
// the target path, and fsync the parent directory. On an error before
// the rename the temp file is removed and the target path is untouched;
// a failed directory fsync is returned after the rename, when the new
// artifact is visible but not yet known to survive a machine crash.
func (a *Atomic) Publish() error {
	if a.done {
		return fmt.Errorf("fsio: publish of %s after completion", a.path)
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		a.fsys.Remove(a.tmp)
		return fmt.Errorf("fsio: fsync %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		a.fsys.Remove(a.tmp)
		return fmt.Errorf("fsio: close %s: %w", a.path, err)
	}
	if err := a.fsys.Rename(a.tmp, a.path); err != nil {
		a.fsys.Remove(a.tmp)
		return fmt.Errorf("fsio: publishing %s: %w", a.path, err)
	}
	if err := a.fsys.SyncDir(filepath.Dir(a.path)); err != nil {
		return fmt.Errorf("fsio: fsync directory of %s: %w", a.path, err)
	}
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
	a.fsys.Remove(a.tmp)
}

// WriteAtomicFunc publishes whatever fn writes, atomically, on OS.
func WriteAtomicFunc(path string, fn func(io.Writer) error) error {
	a, err := NewAtomic(OS, path)
	if err != nil {
		return err
	}
	defer a.Abort()
	if err := fn(a); err != nil {
		return err
	}
	return a.Publish()
}
