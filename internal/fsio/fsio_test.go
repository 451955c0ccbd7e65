package fsio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// noTempLeft asserts the directory holds exactly the named files — no
// stray temp files after publish or abort.
func noTempLeft(t *testing.T, dir string, want ...string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, 0, len(ents))
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if len(got) != len(want) {
		t.Fatalf("dir holds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dir holds %v, want %v", got, want)
		}
	}
}

// writeBytes publishes data at path through WriteAtomicFunc.
func writeBytes(path, data string) error {
	return WriteAtomicFunc(path, func(w io.Writer) error {
		_, err := io.WriteString(w, data)
		return err
	})
}

func TestWriteAtomicPublishes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := writeBytes(path, "hello"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("read back %q, %v", data, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("mode = %v, want 0644 (CreateTemp's 0600 must not leak)", fi.Mode().Perm())
	}
	noTempLeft(t, dir, "artifact.bin")
}

func TestWriteAtomicReplacesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeBytes(path, "new"); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "new" {
		t.Fatalf("read back %q", data)
	}
	noTempLeft(t, dir, "artifact.bin")
}

// TestWriteFuncErrorLeavesOldArtifact: a failing writer must abort the
// temp file and leave any previously published artifact untouched.
func TestWriteFuncErrorLeavesOldArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	if err := writeBytes(path, "keep me"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteAtomicFunc(path, func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "keep me" {
		t.Fatalf("old artifact clobbered: %q", data)
	}
	noTempLeft(t, dir, "artifact.bin")
}

func TestAbortRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAtomic(OS, filepath.Join(dir, "never.bin"))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(a, "scratch")
	a.Abort()
	a.Abort() // idempotent
	noTempLeft(t, dir)
}

func TestAbortAfterPublishKeepsArtifact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")
	a, err := NewAtomic(OS, path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(a, "published")
	if err := a.Publish(); err != nil {
		t.Fatal(err)
	}
	a.Abort() // deferred-abort idiom: must not touch the published file
	data, _ := os.ReadFile(path)
	if string(data) != "published" {
		t.Fatalf("abort after publish removed the artifact: %q", data)
	}
}

// TestTempLivesInTargetDir: the temp file must be created next to the
// target (rename across filesystems is not atomic), named after it.
func TestTempLivesInTargetDir(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAtomic(OS, filepath.Join(dir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Abort()
	if filepath.Dir(a.tmp) != dir {
		t.Fatalf("temp %s not in target dir %s", a.tmp, dir)
	}
	if !strings.Contains(filepath.Base(a.tmp), "spec.json") {
		t.Fatalf("temp name %s does not reference target", a.tmp)
	}
}

func TestNewAtomicMissingDir(t *testing.T) {
	if _, err := NewAtomic(OS, filepath.Join(t.TempDir(), "no", "such", "dir", "f")); err == nil {
		t.Fatal("want error for missing directory")
	}
}

// failSyncDir is OS with every directory fsync failing.
type failSyncDir struct{ FS }

var errSyncDir = errors.New("injected directory fsync failure")

func (failSyncDir) SyncDir(string) error { return errSyncDir }

// TestPublishReturnsDirSyncError: a rename whose directory fsync failed
// is not known to survive a machine crash, so Publish must say so.
func TestPublishReturnsDirSyncError(t *testing.T) {
	dir := t.TempDir()
	a, err := NewAtomic(failSyncDir{OS}, filepath.Join(dir, "artifact.bin"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Abort()
	io.WriteString(a, "data")
	if err := a.Publish(); !errors.Is(err, errSyncDir) {
		t.Fatalf("Publish = %v, want the directory fsync error", err)
	}
}

// TestMkdirAllReportsCreated: MkdirAll returns the directories it made,
// deepest first, and nothing for a directory that exists; a file on the
// path fails it.
func TestMkdirAllReportsCreated(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "c")
	created, err := MkdirAll(OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{dir, filepath.Join(root, "a", "b"), filepath.Join(root, "a")}
	if fmt.Sprint(created) != fmt.Sprint(want) {
		t.Fatalf("created %v, want %v", created, want)
	}
	if created, err := MkdirAll(OS, dir); err != nil || created != nil {
		t.Fatalf("second MkdirAll: created %v, err %v; want nothing", created, err)
	}
	file := filepath.Join(root, "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := MkdirAll(OS, filepath.Join(file, "d")); err == nil {
		t.Fatal("MkdirAll under a file succeeded")
	}
}
