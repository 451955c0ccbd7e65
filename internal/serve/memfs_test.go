package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/fsio"
)

// memFS is an in-memory fsio.FS that records every call whose effect a
// crash can observe, so a test can rebuild each state a crash may leave
// (crashImages). Its persistence model (DESIGN.md §13):
//
//   - what a file fsync covered persists;
//   - a file's later writes and truncates persist as any prefix of them,
//     in order, and the last write of the prefix may be torn (cut in
//     the middle);
//   - a directory's creates, renames and removes are durable once the
//     directory is fsynced; before that they persist as any prefix of
//     them, in order.
//
// Files and directories are nodes addressed by number; node 0 is "/".
//
// A memFS can also die mid-run (dieWhen): from the call a predicate
// picks on, every recorded call fails and changes nothing, so what the
// calls before it wrote is what a process death there leaves (image).
type memFS struct {
	mu    sync.Mutex
	base  []*node // the durable state the recording starts from
	nodes []*node // the live state
	ops   []fsOp
	dieAt func(fsOp) bool // nil: the file system never dies
	dead  bool
}

// node is a file (data) or a directory (dir non-nil).
type node struct {
	dir  map[string]int
	data []byte
}

type opKind uint8

const (
	opWrite   opKind = iota // file: append data
	opTrunc                 // file: cut to size
	opSync                  // file fsync
	opLink                  // directory: name → child (create, mkdir)
	opRename                // directory: name → to, replacing to
	opUnlink                // directory: remove name
	opSyncDir               // directory fsync
)

// fsOp is one recorded call; ino is the file or directory it changes,
// name the entry a directory call changes or the name a file call's file
// was opened under.
type fsOp struct {
	kind     opKind
	ino      int
	name, to string
	child    int
	data     []byte
	size     int64
}

func (op fsOp) isSync() bool { return op.kind == opSync || op.kind == opSyncDir }

// newMemFS starts a recording whose durable state is image (nil: an
// empty root).
func newMemFS(image []*node) *memFS {
	if image == nil {
		image = []*node{{dir: map[string]int{}}}
	}
	return &memFS{base: image, nodes: cloneNodes(image)}
}

func cloneNodes(ns []*node) []*node {
	out := make([]*node, len(ns))
	for i, n := range ns {
		c := &node{data: append([]byte(nil), n.data...)}
		if n.dir != nil {
			c.dir = make(map[string]int, len(n.dir))
			for k, v := range n.dir {
				c.dir[k] = v
			}
		}
		out[i] = c
	}
	return out
}

// apply performs op on ns; a torn write lands only its first half.
func apply(ns []*node, op fsOp, torn bool) {
	n := ns[op.ino]
	switch op.kind {
	case opWrite:
		d := op.data
		if torn {
			d = d[:len(d)/2]
		}
		n.data = append(n.data, d...)
	case opTrunc:
		if op.size <= int64(len(n.data)) {
			n.data = n.data[:op.size]
		} else {
			n.data = append(n.data, make([]byte, op.size-int64(len(n.data)))...)
		}
	case opLink:
		n.dir[op.name] = op.child
	case opRename:
		n.dir[op.to] = n.dir[op.name]
		delete(n.dir, op.name)
	case opUnlink:
		delete(n.dir, op.name)
	}
}

// errDead is what every recorded call returns once the memFS has died.
var errDead = errors.New("memfs: the file system died")

// do records op and applies it to the live state, or fails from the
// call dieAt picks on. Caller holds mu.
func (m *memFS) do(op fsOp) error {
	if !m.dead && m.dieAt != nil && m.dieAt(op) {
		m.dead = true
	}
	if m.dead {
		return errDead
	}
	m.ops = append(m.ops, op)
	apply(m.nodes, op, false)
	return nil
}

// dieWhen arms the memFS to die at the first later call pick accepts.
func (m *memFS) dieWhen(pick func(fsOp) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dieAt = pick
}

func (m *memFS) isDead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dead
}

// count is the number of recorded calls: a crash "at count n" keeps the
// effects of the first n.
func (m *memFS) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ops)
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// lookup resolves a clean absolute path. Caller holds mu.
func (m *memFS) lookup(name string) (int, bool) {
	ino := 0
	for _, part := range strings.Split(strings.Trim(filepath.Clean(name), "/"), "/") {
		if part == "" {
			continue
		}
		d := m.nodes[ino].dir
		if d == nil {
			return 0, false
		}
		next, ok := d[part]
		if !ok {
			return 0, false
		}
		ino = next
	}
	return ino, true
}

// parent resolves name's directory. Caller holds mu.
func (m *memFS) parent(op, name string) (int, string, error) {
	dir, ok := m.lookup(filepath.Dir(name))
	if !ok || m.nodes[dir].dir == nil {
		return 0, "", notExist(op, name)
	}
	return dir, filepath.Base(name), nil
}

func (m *memFS) Create(name string) (fsio.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base, err := m.parent("create", name)
	if err != nil {
		return nil, err
	}
	if ino, ok := m.nodes[dir].dir[base]; ok {
		if err := m.do(fsOp{kind: opTrunc, ino: ino, name: base}); err != nil {
			return nil, err
		}
		return &memFile{m: m, ino: ino, name: base}, nil
	}
	ino := len(m.nodes)
	if err := m.do(fsOp{kind: opLink, ino: dir, name: base, child: ino}); err != nil {
		return nil, err
	}
	m.nodes = append(m.nodes, &node{})
	return &memFile{m: m, ino: ino, name: base}, nil
}

func (m *memFS) OpenAppend(name string) (fsio.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.lookup(name)
	if !ok || m.nodes[ino].dir != nil {
		return nil, notExist("open", name)
	}
	return &memFile{m: m, ino: ino, name: filepath.Base(name)}, nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, from, err := m.parent("rename", oldname)
	if err != nil {
		return err
	}
	if filepath.Dir(oldname) != filepath.Dir(newname) {
		return errors.New("memfs: rename across directories")
	}
	if _, ok := m.nodes[dir].dir[from]; !ok {
		return notExist("rename", oldname)
	}
	return m.do(fsOp{kind: opRename, ino: dir, name: from, to: filepath.Base(newname)})
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base, err := m.parent("remove", name)
	if err != nil {
		return err
	}
	if _, ok := m.nodes[dir].dir[base]; !ok {
		return notExist("remove", name)
	}
	return m.do(fsOp{kind: opUnlink, ino: dir, name: base})
}

func (m *memFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.lookup(name)
	if !ok || m.nodes[ino].dir != nil {
		return notExist("truncate", name)
	}
	return m.do(fsOp{kind: opTrunc, ino: ino, name: filepath.Base(name), size: size})
}

func (m *memFS) ReadDir(dir string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.lookup(dir)
	if !ok || m.nodes[ino].dir == nil {
		return nil, notExist("readdir", dir)
	}
	var out []fs.DirEntry
	for name, child := range m.nodes[ino].dir {
		out = append(out, memEntry{name: name, dir: m.nodes[child].dir != nil})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.lookup(name)
	if !ok || m.nodes[ino].dir != nil {
		return nil, notExist("read", name)
	}
	return append([]byte(nil), m.nodes[ino].data...), nil
}

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := 0
	for _, part := range strings.Split(strings.Trim(filepath.Clean(dir), "/"), "/") {
		if part == "" {
			continue
		}
		next, ok := m.nodes[ino].dir[part]
		if !ok {
			next = len(m.nodes)
			if err := m.do(fsOp{kind: opLink, ino: ino, name: part, child: next}); err != nil {
				return err
			}
			m.nodes = append(m.nodes, &node{dir: map[string]int{}})
		} else if m.nodes[next].dir == nil {
			return errors.New("memfs: mkdir over a file: " + dir)
		}
		ino = next
	}
	return nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.lookup(dir)
	if !ok || m.nodes[ino].dir == nil {
		return notExist("sync", dir)
	}
	return m.do(fsOp{kind: opSyncDir, ino: ino})
}

// memFile is an open handle on one node, opened under name.
type memFile struct {
	m    *memFS
	ino  int
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.m.do(fsOp{kind: opWrite, ino: f.ino, name: f.name, data: append([]byte(nil), p...)}); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	return f.m.do(fsOp{kind: opSync, ino: f.ino, name: f.name})
}

func (f *memFile) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	return f.m.do(fsOp{kind: opTrunc, ino: f.ino, name: f.name, size: size})
}

func (f *memFile) Close() error { return nil }

type memEntry struct {
	name string
	dir  bool
}

func (e memEntry) Name() string               { return e.name }
func (e memEntry) IsDir() bool                { return e.dir }
func (e memEntry) Info() (fs.FileInfo, error) { return nil, errors.New("memfs: no FileInfo") }

func (e memEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}

// crashImage is one state a crash after the first cut recorded calls may
// leave. death marks the process-death state, where every call before
// the cut took full effect.
type crashImage struct {
	cut   int
	death bool
	nodes []*node
}

// image is the live state: what a process death right now leaves.
func (m *memFS) image() []*node {
	m.mu.Lock()
	defer m.mu.Unlock()
	return cloneNodes(m.nodes)
}

// crashImages enumerates, for every cut 0..len(ops), the states the
// persistence model allows. An image already seen (same tree, same
// bytes) is dropped unless epoch, which numbers what a check expects of
// a cut (how many batches were acked by then), or the process-death mark
// differs. visit returns false to stop.
func (m *memFS) crashImages(epoch func(cut int) int, visit func(crashImage) bool) (states int) {
	m.mu.Lock()
	ops := append([]fsOp(nil), m.ops...)
	isDir := make([]bool, len(m.nodes))
	for i, n := range m.nodes {
		isDir[i] = n.dir != nil
	}
	m.mu.Unlock()

	type seenKey struct {
		epoch int
		death bool
		image [32]byte
	}
	seen := map[seenKey]bool{}
	for cut := 0; cut <= len(ops); cut++ {
		// pending[ino] lists the indexes of the ops after ino's last
		// fsync: the ones a crash may keep a prefix of.
		lastSync := map[int]int{}
		for i, op := range ops[:cut] {
			if op.isSync() {
				lastSync[op.ino] = i
			}
		}
		pending := map[int][]int{}
		var units []int
		for i, op := range ops[:cut] {
			if s, ok := lastSync[op.ino]; (ok && i < s) || op.isSync() {
				continue
			}
			if pending[op.ino] == nil {
				units = append(units, op.ino)
			}
			pending[op.ino] = append(pending[op.ino], i)
		}
		// A unit's choices: keep the first j pending ops (j = 0..n), and
		// for a file, also each write kept torn as the last one. The
		// last choice keeps everything: the process-death one.
		type choice struct{ keep, torn int } // torn: op index, or -1
		choices := make([][]choice, len(units))
		for u, ino := range units {
			p := pending[ino]
			for j := 0; j <= len(p); j++ {
				if j > 0 && ops[p[j-1]].kind == opWrite && len(ops[p[j-1]].data) > 1 {
					choices[u] = append(choices[u], choice{j, p[j-1]})
				}
				choices[u] = append(choices[u], choice{j, -1})
			}
		}
		pick := make([]int, len(units))
		for {
			death := true
			drop := map[int]bool{}
			tornSet := map[int]bool{}
			for u, ino := range units {
				c := choices[u][pick[u]]
				if pick[u] != len(choices[u])-1 {
					death = false
				}
				for _, i := range pending[ino][c.keep:] {
					drop[i] = true
				}
				if c.torn >= 0 {
					tornSet[c.torn] = true
				}
			}
			img := cloneNodes(m.base)
			for len(img) < len(isDir) {
				n := &node{}
				if isDir[len(img)] {
					n.dir = map[string]int{}
				}
				img = append(img, n)
			}
			for i, op := range ops[:cut] {
				if !drop[i] {
					apply(img, op, tornSet[i])
				}
			}
			if key := (seenKey{epoch(cut), death, imageKey(img)}); !seen[key] {
				seen[key] = true
				states++
				if !visit(crashImage{cut: cut, death: death, nodes: img}) {
					return states
				}
			}
			// Next combination (mixed radix).
			u := 0
			for ; u < len(units); u++ {
				if pick[u]++; pick[u] < len(choices[u]) {
					break
				}
				pick[u] = 0
			}
			if u == len(units) {
				break
			}
		}
	}
	return states
}

// imageKey hashes the tree reachable from "/": every path with its bytes.
func imageKey(ns []*node) [32]byte {
	h := sha256.New()
	var walk func(ino int, path string)
	walk = func(ino int, path string) {
		n := ns[ino]
		if n.dir == nil {
			h.Write([]byte(path + "\x00f"))
			h.Write(binary.AppendUvarint(nil, uint64(len(n.data))))
			h.Write(n.data)
			return
		}
		h.Write([]byte(path + "\x00d\x00"))
		names := make([]string, 0, len(n.dir))
		for name := range n.dir {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			walk(n.dir[name], path+"/"+name)
		}
	}
	walk(0, "")
	var key [32]byte
	h.Sum(key[:0])
	return key
}
