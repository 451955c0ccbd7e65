package relation

import (
	"maps"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/logic"
)

func bitset() *Relation {
	// The paper's running example: BitSet as a 2-ary relation mapping
	// integral indices to boolean values, FD idx → val.
	return New([]string{"idx", "val"}, &FD{Domain: []string{"idx"}, Range: []string{"val"}})
}

func tup(idx, val string) Tuple { return Tuple{"idx": idx, "val": val} }

func TestNewValidatesFD(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("FD not partitioning columns must panic")
		}
	}()
	New([]string{"a", "b"}, &FD{Domain: []string{"a"}, Range: []string{"c"}})
}

func TestInsertReplacesMatching(t *testing.T) {
	r := bitset()
	r.Insert(tup("3", "0"))
	removed := r.Insert(tup("3", "1"))
	if len(removed) != 1 || removed[0]["val"] != "0" {
		t.Fatalf("insert must evict the matching tuple, removed=%v", removed)
	}
	if r.Len() != 1 || !r.Has(tup("3", "1")) || r.Has(tup("3", "0")) {
		t.Fatalf("state after replace: %v", r)
	}
}

func TestInsertNoFDMatchesAllColumns(t *testing.T) {
	r := New([]string{"a", "b"}, nil)
	r.Insert(Tuple{"a": "1", "b": "2"})
	removed := r.Insert(Tuple{"a": "1", "b": "3"})
	if len(removed) != 0 {
		t.Fatalf("without FD, tuples differing in any column do not match; removed=%v", removed)
	}
	if r.Len() != 2 {
		t.Fatalf("Len=%d, want 2", r.Len())
	}
}

func TestRemove(t *testing.T) {
	r := bitset()
	r.Insert(tup("1", "1"))
	if !r.Remove(tup("1", "1")) {
		t.Errorf("remove of present tuple must report true")
	}
	if r.Remove(tup("1", "1")) {
		t.Errorf("remove of absent tuple must report false")
	}
	if r.Len() != 0 {
		t.Errorf("Len=%d, want 0", r.Len())
	}
}

func TestMatchingAndLocKey(t *testing.T) {
	r := bitset()
	r.Insert(tup("7", "1"))
	m := r.Matching(tup("7", "0"))
	if len(m) != 1 || m[0]["val"] != "1" {
		t.Fatalf("Matching = %v", m)
	}
	if got := r.LocKey(tup("7", "0")); got != "idx=7" {
		t.Fatalf("LocKey = %q", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := bitset()
	r.Insert(tup("1", "1"))
	c := r.Clone()
	c.Insert(tup("2", "1"))
	if r.Len() != 1 {
		t.Fatalf("mutating clone affected original")
	}
	if !r.Equal(r.Clone()) {
		t.Fatalf("clone must equal original")
	}
}

func TestContentFormulaMatchesConcrete(t *testing.T) {
	// Random op sequences: the Table 4 symbolic content must agree with
	// the concrete relation on every tuple of a small universe.
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		r := bitset()
		f := r.ContentFormula()
		for step := 0; step < 10; step++ {
			idx := strconv.Itoa(rng.Intn(3))
			val := strconv.Itoa(rng.Intn(2))
			u := tup(idx, val)
			if rng.Intn(2) == 0 {
				f = r.ContentInsert(f, u)
				r.Insert(u)
			} else {
				f = r.ContentRemoveMatching(f, u)
				for _, m := range r.Matching(u) {
					r.Remove(m)
				}
			}
		}
		// Check agreement on the full universe.
		for i := 0; i < 3; i++ {
			for v := 0; v < 2; v++ {
				u := tup(strconv.Itoa(i), strconv.Itoa(v))
				asn := map[logic.Atom]bool{
					{Col: "idx", Val: u["idx"]}: true,
					{Col: "val", Val: u["val"]}: true,
				}
				if got, want := f.Eval(asn), r.Has(u); got != want {
					t.Fatalf("iter %d: formula says %v, relation says %v for %v\nf=%v\nr=%v",
						iter, got, want, u, f, r)
				}
			}
		}
	}
}

// flat builds an FD-free relation over one column from values.
func flat(vals ...string) *Relation {
	r := New([]string{"x"}, nil)
	for _, v := range vals {
		r.Insert(Tuple{"x": v})
	}
	return r
}

func TestSetOpsBasics(t *testing.T) {
	a := flat("1", "2", "3")
	i := flat("2", "3")
	le, err := i.Leq(a)
	if err != nil || !le {
		t.Fatalf("a subset must be ⊑ a")
	}
	le, _ = a.Leq(i)
	if le {
		t.Fatalf("a must not be ⊑ its strict subset")
	}
	if a.Equal(i) || !i.Equal(flat("3", "2")) {
		t.Fatalf("Equal must compare tuple sets")
	}
}

func TestSetOpsSchemaMismatch(t *testing.T) {
	a := flat("1")
	b := New([]string{"y"}, nil)
	if _, err := a.Leq(b); err == nil {
		t.Errorf("Leq across schemas must fail")
	}
	if a.Equal(b) {
		t.Errorf("relations over different schemas must not be Equal")
	}
	fd := New([]string{"x", "y"}, &FD{Domain: []string{"x"}, Range: []string{"y"}})
	if _, err := New([]string{"x", "y"}, nil).Leq(fd); err == nil {
		t.Errorf("Leq across FDs must fail")
	}
}

func TestTupleBasics(t *testing.T) {
	u := tup("1", "0")
	if !maps.Equal(u, u.Clone()) {
		t.Errorf("clone must be equal")
	}
	if got := u.String(); got != "(idx=1,val=0)" {
		t.Errorf("String = %q", got)
	}
	if got := u.Cols(); !reflect.DeepEqual(got, []string{"idx", "val"}) {
		t.Errorf("Cols = %v", got)
	}
}

// TestKeyIsInjective: values holding the rendering's separators are
// escaped, so distinct restrictions render distinctly and ParseKey reads
// every one back; plain values render unescaped.
func TestKeyIsInjective(t *testing.T) {
	cols := []string{"a", "b"}
	tuples := []Tuple{
		{"a": "c", "b": "a,b=x"},
		{"a": "c,b=a", "b": "x"},
		{"a": `c\`, "b": "x"},
		{"a": `c\,b=x`, "b": ""},
		{"a": "=", "b": ","},
		{"a": "", "b": ""},
	}
	seen := map[string]Tuple{}
	for _, u := range tuples {
		k := u.Key(cols)
		if prev, dup := seen[k]; dup {
			t.Fatalf("%v and %v both render %q", prev, u, k)
		}
		seen[k] = u
		if got := ParseKey(k); !maps.Equal(got, u) {
			t.Errorf("ParseKey(%q) = %v, want %v", k, got, u)
		}
	}
	if got := (Tuple{"a": "1", "b": "x y"}).Key(cols); got != "a=1,b=x y" {
		t.Errorf("plain key = %q", got)
	}
}

func TestRelationString(t *testing.T) {
	r := bitset()
	r.Insert(tup("2", "1"))
	r.Insert(tup("1", "0"))
	if got := r.String(); got != "{(idx=1,val=0) (idx=2,val=1)}" {
		t.Errorf("String = %q", got)
	}
}

// --- Reference model -------------------------------------------------
//
// modelRel is the relation as it was first implemented: a Go map keyed by
// the full-tuple rendering, a scan for every match and a sort for every
// ordered read. It is slow and obviously right, and the persistent
// implementation must be indistinguishable from it.

type modelRel struct {
	cols   []string
	fd     *FD
	tuples map[string]Tuple
}

func newModel(cols []string, fd *FD) *modelRel {
	sorted := append([]string(nil), cols...)
	sort.Strings(sorted)
	return &modelRel{cols: sorted, fd: fd, tuples: make(map[string]Tuple)}
}

func (r *modelRel) matchCols() []string {
	if r.fd != nil {
		sorted := append([]string(nil), r.fd.Domain...)
		sort.Strings(sorted)
		return sorted
	}
	return r.cols
}

func modelKey(t Tuple, cols []string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = c + "=" + t[c]
	}
	return strings.Join(parts, ",")
}

func (r *modelRel) Len() int { return len(r.tuples) }

func (r *modelRel) Tuples() []Tuple {
	keys := make([]string, 0, len(r.tuples))
	for k := range r.tuples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Tuple, len(keys))
	for i, k := range keys {
		out[i] = r.tuples[k]
	}
	return out
}

func (r *modelRel) Has(t Tuple) bool {
	_, ok := r.tuples[modelKey(t, r.cols)]
	return ok
}

func (r *modelRel) LocKey(t Tuple) string { return modelKey(t, r.matchCols()) }

func (r *modelRel) Matching(t Tuple) []Tuple {
	mc := r.matchCols()
	key := modelKey(t, mc)
	var out []Tuple
	for _, u := range r.Tuples() {
		if modelKey(u, mc) == key {
			out = append(out, u)
		}
	}
	return out
}

func (r *modelRel) Insert(t Tuple) []Tuple {
	removed := r.Matching(t)
	for _, u := range removed {
		delete(r.tuples, modelKey(u, r.cols))
	}
	r.tuples[modelKey(t, r.cols)] = t.Clone()
	return removed
}

func (r *modelRel) Remove(t Tuple) bool {
	k := modelKey(t, r.cols)
	_, ok := r.tuples[k]
	delete(r.tuples, k)
	return ok
}

func (r *modelRel) Clone() *modelRel {
	c := newModel(r.cols, r.fd)
	for k, t := range r.tuples {
		c.tuples[k] = t.Clone()
	}
	return c
}

// Equal reports whether the two models hold the same tuples on their
// columns.
func (r *modelRel) Equal(o *modelRel) bool {
	if len(r.tuples) != len(o.tuples) {
		return false
	}
	for k := range r.tuples {
		if _, ok := o.tuples[k]; !ok {
			return false
		}
	}
	return true
}

func (r *modelRel) String() string {
	ts := r.Tuples()
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}

// sameTuples compares two tuple lists in order, nil and empty alike.
func sameTuples(a, b []Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestAgainstReferenceModel drives the relation and the reference model
// with the same seeded random operation sequences — point operations with
// full and partial probe tuples, clones and equality over a pool of
// relations — on schemas with and without an FD, and requires every
// result and the whole observable state (Len, Tuples order, String,
// LocKey) to be identical after every step.
// The digest each relation kept incrementally through that history must
// equal the digest of a relation built afresh from its tuples.
func TestAgainstReferenceModel(t *testing.T) {
	schemas := []struct {
		name string
		cols []string
		fd   *FD
	}{
		{"fd-1", []string{"idx", "val"}, &FD{Domain: []string{"idx"}, Range: []string{"val"}}},
		{"fd-2", []string{"c", "b", "a"}, &FD{Domain: []string{"b", "a"}, Range: []string{"c"}}},
		{"no-fd", []string{"b", "a"}, nil},
	}
	for _, sc := range schemas {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				const pool = 3
				var real [pool]*Relation
				var model [pool]*modelRel
				for i := range real {
					real[i], model[i] = New(sc.cols, sc.fd), newModel(sc.cols, sc.fd)
				}
				// randTuple draws each column from a small domain; with
				// probability 1/4 a column is left out (a partial tuple),
				// and now and then the tuple carries a column the schema
				// does not have.
				randTuple := func() Tuple {
					u := Tuple{}
					for _, c := range sc.cols {
						if rng.Intn(4) > 0 {
							u[c] = strconv.Itoa(rng.Intn(5))
						}
					}
					if rng.Intn(8) == 0 {
						u["extra"] = strconv.Itoa(rng.Intn(2))
					}
					return u
				}
				for step := 0; step < 300; step++ {
					i, j := rng.Intn(pool), rng.Intn(pool)
					r, m := real[i], model[i]
					u := randTuple()
					what := ""
					switch op := rng.Intn(8); op {
					case 0, 1, 2:
						what = "insert"
						if gr, gm := r.Insert(u), m.Insert(u); !sameTuples(gr, gm) {
							t.Fatalf("seed %d step %d: Insert(%v) evicted %v, model %v", seed, step, u, gr, gm)
						}
					case 3, 4:
						what = "remove"
						if gr, gm := r.Remove(u), m.Remove(u); gr != gm {
							t.Fatalf("seed %d step %d: Remove(%v) = %v, model %v", seed, step, u, gr, gm)
						}
					case 5:
						what = "matching/has"
						if gr, gm := r.Matching(u), m.Matching(u); !sameTuples(gr, gm) {
							t.Fatalf("seed %d step %d: Matching(%v) = %v, model %v", seed, step, u, gr, gm)
						}
						if gr, gm := r.Has(u), m.Has(u); gr != gm {
							t.Fatalf("seed %d step %d: Has(%v) = %v, model %v", seed, step, u, gr, gm)
						}
					case 6:
						what = "clone"
						real[j], model[j] = r.Clone(), m.Clone()
					default:
						what = "equal"
						if gr, gm := r.Equal(real[j]), m.Equal(model[j]); gr != gm {
							t.Fatalf("seed %d step %d: Equal(%v, %v) = %v, model %v", seed, step, r, real[j], gr, gm)
						}
					}
					for k := range real {
						r, m := real[k], model[k]
						if r.Len() != m.Len() || !sameTuples(r.Tuples(), m.Tuples()) || r.String() != m.String() {
							t.Fatalf("seed %d step %d: after %s relation %d = %v (len %d), model %v (len %d)",
								seed, step, what, k, r, r.Len(), m, m.Len())
						}
						if got, want := r.Digest(), rebuilt(r, nil).Digest(); got != want {
							t.Fatalf("seed %d step %d: after %s relation %d = %v keeps digest %016x, rebuilt from its tuples %016x",
								seed, step, what, k, r, got, want)
						}
					}
					if kr, km := r.LocKey(u), m.LocKey(u); kr != km {
						t.Fatalf("seed %d step %d: LocKey(%v) = %q, model %q", seed, step, u, kr, km)
					}
				}
			}
		})
	}
}

// rebuilt returns a fresh relation holding r's tuples, inserted in
// canonical order or, with a source of randomness, in a shuffled one.
func rebuilt(r *Relation, rng *rand.Rand) *Relation {
	ts := r.Tuples()
	if rng != nil {
		rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	}
	out := New(r.cols, r.fd)
	for _, u := range ts {
		out.Insert(u)
	}
	return out
}

// TestDigestSeparatesWhatStringSeparates: over 10^4 random relations, a
// shuffled rebuild is Equal and digests the same, and a copy that differs
// by one tuple, one value, one dropped column or one foreign column
// digests differently — the digest tells apart exactly what the canonical
// rendering does, which for tuples binding the schema's columns is what
// Equal does.
func TestDigestSeparatesWhatStringSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cols := []string{"k", "v", "w"}
	fd := &FD{Domain: []string{"k"}, Range: []string{"v", "w"}}
	for pair := 0; pair < 10000; pair++ {
		a := New(cols, fd)
		for n := rng.Intn(9); n > 0; n-- {
			a.Insert(Tuple{"k": strconv.Itoa(rng.Intn(12)), "v": strconv.Itoa(rng.Intn(3)), "w": strconv.Itoa(rng.Intn(3))})
		}
		b := rebuilt(a, rng)
		if !a.Equal(b) || a.Digest() != b.Digest() {
			t.Fatalf("pair %d: %v and its shuffled rebuild %v: Equal %v, digests %016x %016x",
				pair, a, b, a.Equal(b), a.Digest(), b.Digest())
		}
		wellFormed := true
		ts := b.Tuples()
		switch kind := rng.Intn(5); {
		case kind == 0 || len(ts) == 0: // one more tuple, at a new key
			b.Insert(Tuple{"k": "new", "v": "0", "w": "0"})
		case kind == 1: // one tuple fewer
			b.Remove(ts[rng.Intn(len(ts))])
		case kind == 2: // one value differs
			u := ts[rng.Intn(len(ts))].Clone()
			u["w"] += "'"
			b.Insert(u)
		case kind == 3: // one column dropped: a partial tuple
			u := ts[rng.Intn(len(ts))].Clone()
			delete(u, "w")
			b.Insert(u)
			wellFormed = false
		default: // one foreign column
			u := ts[rng.Intn(len(ts))].Clone()
			u["extra"] = "1"
			b.Insert(u)
			wellFormed = false
		}
		if a.String() == b.String() || a.Digest() == b.Digest() {
			t.Fatalf("pair %d: %v and %v differ by one change but digest %016x and %016x", pair, a, b, a.Digest(), b.Digest())
		}
		if wellFormed && a.Equal(b) {
			t.Fatalf("pair %d: %v and %v are Equal but digest differently", pair, a, b)
		}
		if c := rebuilt(b, rng); c.Digest() != b.Digest() {
			t.Fatalf("pair %d: %v digests %016x, its shuffled rebuild %016x", pair, b, b.Digest(), c.Digest())
		}
	}
}

// filled returns a k→v relation of n tuples.
func filled(n int) *Relation {
	r := New([]string{"k", "v"}, &FD{Domain: []string{"k"}, Range: []string{"v"}})
	for i := 0; i < n; i++ {
		r.Insert(Tuple{"k": strconv.Itoa(i), "v": "init"})
	}
	return r
}

// TestCloneIsolation: versions share structure, so the property that must
// hold is that no write to one clone is ever visible through the original
// or a sibling — including while other goroutines read the original and
// write their own clones (the runtime's situation: every transaction
// clones the committed relation; run under -race).
func TestCloneIsolation(t *testing.T) {
	const n = 500
	orig := filled(n)
	want, wantDigest := orig.String(), orig.Digest()

	a, b := orig.Clone(), orig.Clone()
	a.Insert(Tuple{"k": "7", "v": "a"})
	a.Remove(Tuple{"k": "8", "v": "init"})
	b.Insert(Tuple{"k": "7", "v": "b"})
	b.Insert(Tuple{"k": "new", "v": "b"})
	if orig.String() != want {
		t.Fatalf("writes to clones reached the original")
	}
	if !a.Has(Tuple{"k": "7", "v": "a"}) || a.Len() != n-1 || a.Has(Tuple{"k": "new", "v": "b"}) {
		t.Fatalf("clone a saw a sibling's writes or lost its own: len %d", a.Len())
	}
	if !b.Has(Tuple{"k": "7", "v": "b"}) || b.Len() != n+1 || !b.Has(Tuple{"k": "8", "v": "init"}) {
		t.Fatalf("clone b saw a sibling's writes or lost its own: len %d", b.Len())
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) { // a reader of the shared version
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := strconv.Itoa((i*7 + w) % n)
				if m := orig.Matching(Tuple{"k": k}); len(m) != 1 || m[0]["v"] != "init" {
					t.Errorf("reader %d: Matching(k=%s) = %v", w, k, m)
					return
				}
			}
			if orig.String() != want {
				t.Errorf("reader %d: original changed under concurrent clone writes", w)
			}
		}(w)
		go func(w int) { // a writer of its own clone
			defer wg.Done()
			c := orig.Clone()
			mine := "w" + strconv.Itoa(w)
			for i := 0; i < n; i++ {
				c.Insert(Tuple{"k": strconv.Itoa(i), "v": mine})
			}
			for _, u := range c.Tuples() {
				if u["v"] != mine {
					t.Errorf("writer %d: clone holds %v", w, u)
					return
				}
			}
			if c.Digest() != rebuilt(c, nil).Digest() || c.Digest() == wantDigest {
				t.Errorf("writer %d: clone's digest %016x does not follow its own writes", w, c.Digest())
			}
		}(w)
	}
	wg.Wait()
	if orig.String() != want || orig.Digest() != wantDigest {
		t.Fatalf("original changed under concurrent clone writes")
	}
}

// TestPointOpsAreSizeIndependent fences the reason for the persistent
// representation: what a point operation allocates may grow with the trie
// depth (one path copy per level) but never with the number of tuples.
// Between 16 and 4096 tuples a 32-way trie gains at most 3 levels.
func TestPointOpsAreSizeIndependent(t *testing.T) {
	const extraLevels = 3
	small, large := filled(16), filled(4096)
	probe := Tuple{"k": "5", "v": "x"}
	ops := []struct {
		name     string
		perLevel float64 // allocations one more trie level may add
		run      func(r *Relation) func()
	}{
		{"Matching", 0, func(r *Relation) func() { return func() { r.Matching(probe) } }},
		{"Has", 0, func(r *Relation) func() { return func() { r.Has(probe) } }},
		{"Clone", 0, func(r *Relation) func() { return func() { _ = r.Clone() } }},
		{"Digest", 0, func(r *Relation) func() { return func() { _ = r.Digest() } }},
		// A path copy allocates a node and its child slice per level.
		{"Insert", 2, func(r *Relation) func() { return func() { r.Clone().Insert(probe) } }},
		{"Remove", 2, func(r *Relation) func() {
			present := Tuple{"k": "5", "v": "init"}
			return func() { r.Clone().Remove(present) }
		}},
	}
	for _, op := range ops {
		s := testing.AllocsPerRun(100, op.run(small))
		l := testing.AllocsPerRun(100, op.run(large))
		if l-s > op.perLevel*extraLevels {
			t.Errorf("%s: %.0f allocs at 16 tuples, %.0f at 4096: grows with size, not depth", op.name, s, l)
		}
	}
}
