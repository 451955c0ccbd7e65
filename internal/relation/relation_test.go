package relation

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// bitset is the paper's running example: a BitSet as the relation
// mapping indices to bits.
func bitset(bits ...[2]string) *Relation {
	r := New()
	for _, b := range bits {
		r.Put(b[0], b[1])
	}
	return r
}

func TestInsertReplacesMatching(t *testing.T) {
	r := bitset([2]string{"3", "0"})
	r.Put("3", "1")
	if v, ok := r.Get("3"); !ok || v != "1" || r.Len() != 1 {
		t.Fatalf("put must replace the key's binding: Get = %q, %v; state %v", v, ok, r)
	}
	if _, ok := r.Get("4"); ok {
		t.Fatalf("an unbound key reads as bound")
	}
}

func TestRemove(t *testing.T) {
	r := bitset([2]string{"1", "1"}, [2]string{"2", "0"})
	if !r.Delete("1") {
		t.Errorf("delete of a bound key must report true")
	}
	if r.Delete("1") || r.Delete("zzz") {
		t.Errorf("delete of an unbound key must report false")
	}
	if _, ok := r.Get("1"); ok || r.Len() != 1 {
		t.Errorf("after delete: %v (len %d)", r, r.Len())
	}
	if v, ok := r.Get("2"); !ok || v != "0" {
		t.Errorf("delete took a sibling: %v", r)
	}
}

// TestDeleteKeepsVersions: a delete from a clone takes the key from that
// version only, and a delete of an unbound key leaves the relation as it
// was.
func TestDeleteKeepsVersions(t *testing.T) {
	m := bitset([2]string{"a", "1"}, [2]string{"b", "2"})
	d := m.Clone()
	d.Delete("a")
	if _, ok := d.Get("a"); ok {
		t.Errorf("a must be gone")
	}
	if v, ok := d.Get("b"); !ok || v != "2" {
		t.Errorf("b must survive")
	}
	if v, ok := m.Get("a"); !ok || v != "1" || m.Len() != 2 {
		t.Errorf("original version must keep a: %v", m)
	}
	same := d.Clone()
	d.Delete("zzz")
	if !d.Equal(same) || d.Digest() != same.Digest() || d.Len() != 1 {
		t.Errorf("deleting an absent key changed the relation: %v, was %v", d, same)
	}
}

// TestMatchingAndLocKey: a custom ADT's probe finds the binding that
// matches it on the domain. Its location key is the rendering of its
// domain, whatever it binds in the range, and the value read there parses
// back to the stored range.
func TestMatchingAndLocKey(t *testing.T) {
	dom, rng := []string{"idx"}, []string{"val"}
	stored := Tuple{"idx": "7", "val": "1"}
	r := New()
	r.Put(stored.Key(dom), stored.Key(rng))
	probe := Tuple{"idx": "7", "val": "0"}
	if got := probe.Key(dom); got != "idx=7" {
		t.Fatalf("LocKey = %q", got)
	}
	v, ok := r.Get(probe.Key(dom))
	if m := ParseKey(v); !ok || len(m) != 1 || m["val"] != "1" {
		t.Fatalf("Matching = %q, %v", v, ok)
	}
}

// TestVersionsPersist: every version a write started from stays as it was.
func TestVersionsPersist(t *testing.T) {
	r1 := bitset([2]string{"x", "1"})
	r2 := r1.Clone()
	r2.Put("y", "2")
	r3 := r2.Clone()
	r3.Put("x", "10")
	for _, c := range []struct {
		r    *Relation
		want string
	}{
		{r1, "{(k=x,v=1)}"},
		{r2, "{(k=x,v=1) (k=y,v=2)}"},
		{r3, "{(k=x,v=10) (k=y,v=2)}"},
	} {
		if got := c.r.String(); got != c.want {
			t.Errorf("version = %s, want %s", got, c.want)
		}
	}
}

func TestZeroRelationIsEmpty(t *testing.T) {
	var r Relation
	if r.Len() != 0 || r.String() != "{}" || !r.Equal(New()) || r.Digest() != New().Digest() {
		t.Fatalf("zero relation %v is not the empty one", &r)
	}
	if _, ok := r.Get(""); ok || r.Delete("") {
		t.Fatalf("zero relation binds the empty key")
	}
	r.Each(func(string, string) bool { t.Error("Each over the empty relation called fn"); return true })
	r.Put("", "x")
	if v, ok := r.Get(""); !ok || v != "x" || r.Len() != 1 {
		t.Fatalf("the empty key is a key: Get = %q, %v", v, ok)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := bitset([2]string{"1", "1"})
	c := r.Clone()
	c.Put("2", "1")
	c.Clear()
	if r.Len() != 1 {
		t.Fatalf("mutating clone affected original")
	}
	if !r.Equal(r.Clone()) {
		t.Fatalf("clone must equal original")
	}
}

func TestSetOpsBasics(t *testing.T) {
	a := bitset([2]string{"1", "x"}, [2]string{"2", "y"}, [2]string{"3", "z"})
	b := bitset([2]string{"3", "z"}, [2]string{"1", "x"}, [2]string{"2", "y"})
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("Equal must compare binding sets, not insertion order")
	}
	b.Put("2", "y'")
	if a.Equal(b) {
		t.Fatalf("a different value at one key must not be Equal")
	}
	b.Put("2", "y")
	b.Put("4", "w")
	if a.Equal(b) || b.Equal(a) {
		t.Fatalf("a strict superset must not be Equal")
	}
}

func TestTupleBasics(t *testing.T) {
	u := Tuple{"idx": "1", "val": "0"}
	if got := u.Key([]string{"idx", "val"}); got != "idx=1,val=0" {
		t.Errorf("Key = %q", got)
	}
	if got := u.Key([]string{"val"}); got != "val=0" {
		t.Errorf("Key of a restriction = %q", got)
	}
	if got := u.Key(nil); got != "" {
		t.Errorf("Key of the empty restriction = %q", got)
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

// TestRelationString: bindings render escaped, in the order of their
// renderings, which is not the keys' order once a key holds a byte that
// sorts below ',' or one that is escaped.
func TestRelationString(t *testing.T) {
	r := bitset([2]string{"2", "1"}, [2]string{"1", "0"}, [2]string{"a", "x"}, [2]string{"a!", "y"}, [2]string{`a,`, `=`})
	if got, want := r.String(), `{(k=1,v=0) (k=2,v=1) (k=a!,v=y) (k=a,v=x) (k=a\,,v=\=)}`; got != want {
		t.Errorf("String = %s, want %s", got, want)
	}
}

// --- Reference model -------------------------------------------------
//
// model is the relation as the obvious code would keep it: a Go map from
// key to value, copied for every clone and sorted for every ordered read.
// The persistent implementation must be indistinguishable from it.

type model map[string]string

func (m model) String() string {
	parts := make([]string, 0, len(m))
	for k, v := range m {
		parts = append(parts, "("+Tuple{"k": k, "v": v}.Key([]string{"k", "v"})+")")
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}

// sameAs reports whether r holds exactly m's bindings, by every reader.
func sameAs(r *Relation, m model) bool {
	if r.Len() != len(m) || r.String() != m.String() {
		return false
	}
	for k, v := range m {
		if w, ok := r.Get(k); !ok || w != v {
			return false
		}
	}
	var keys []string
	r.Each(func(k, v string) bool {
		keys = append(keys, k)
		return m[k] == v
	})
	sort.Strings(keys)
	want := make([]string, 0, len(m))
	for k := range m {
		want = append(want, k)
	}
	sort.Strings(want)
	return slices.Equal(keys, want)
}

// layouts are the ways callers lay their data out in a relation: the
// built-in KVMap's raw keys and values, and three custom-ADT schemas laid
// out as adt.CustomObject lays them out, the domain valuation rendered by
// Tuple.Key as the key and the range valuation as the value ("" for a
// schema without an FD, whose domain is every column).
var layouts = []struct {
	name     string
	dom, rng []string // nil: a raw draw, not a rendered valuation
}{
	{"kv", nil, nil},
	{"fd-1", []string{"idx"}, []string{"val"}},
	{"fd-2", []string{"a", "b"}, []string{"c"}},
	{"no-fd", []string{"a", "b"}, []string{}},
}

// TestAgainstReferenceModel drives a pool of relations and the model
// through random puts, deletes, clears, gets, clones and comparisons, and
// requires the relations to agree with it on the step's key after every
// step and by every reader every 25 steps, for each layout. Keys come
// from a universe large enough to give the trie several levels. The
// digest each relation kept incrementally through that history must
// equal the digest of a relation built afresh from its bindings.
func TestAgainstReferenceModel(t *testing.T) {
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				referenceRun(t, seed, lay.dom, lay.rng)
			}
		})
	}
}

// referenceRun is one seeded run of TestAgainstReferenceModel, drawing
// keys over the columns dom and values over rng.
func referenceRun(t *testing.T, seed int64, dom, rng []string) {
	r := rand.New(rand.NewSource(seed))
	universe := 4 + r.Intn(2000)
	// draw renders a valuation of cols, each column below n, or draws a
	// raw number below n when cols is nil.
	draw := func(cols []string, n int) string {
		if cols == nil {
			return strconv.Itoa(r.Intn(n))
		}
		u := Tuple{}
		for _, c := range cols {
			u[c] = strconv.Itoa(r.Intn(n))
		}
		return u.Key(cols)
	}
	perCol := universe
	if len(dom) > 1 {
		perCol = 2 + universe/40
	}
	const pool = 3
	var real [pool]*Relation
	var ref [pool]model
	for i := range real {
		real[i], ref[i] = New(), model{}
	}
	for step := 0; step < 1500; step++ {
		i, j := r.Intn(pool), r.Intn(pool)
		rel, m := real[i], ref[i]
		key := draw(dom, perCol)
		what := ""
		switch op := r.Intn(16); {
		case op < 8:
			what = "put"
			val := draw(rng, 3)
			rel.Put(key, val)
			m[key] = val
		case op < 12:
			what = "delete"
			_, had := m[key]
			delete(m, key)
			if got := rel.Delete(key); got != had {
				t.Fatalf("seed %d step %d: Delete(%s) = %v, model %v", seed, step, key, got, had)
			}
		case op == 12:
			what = "get"
			v, ok := rel.Get(key)
			if w, had := m[key]; ok != had || v != w {
				t.Fatalf("seed %d step %d: Get(%s) = %q, %v; model %q, %v", seed, step, key, v, ok, w, had)
			}
		case op == 13:
			what = "clone"
			real[j], ref[j] = rel.Clone(), maps.Clone(m)
		case op == 14 && r.Intn(20) == 0:
			what = "clear"
			rel.Clear()
			clear(m)
		default:
			what = "equal"
			if got, want := rel.Equal(real[j]), maps.Equal(m, ref[j]); got != want {
				t.Fatalf("seed %d step %d: Equal(%v, %v) = %v, model %v", seed, step, rel, real[j], got, want)
			}
		}
		for k := range real {
			v, ok := real[k].Get(key)
			w, had := ref[k][key]
			if real[k].Len() != len(ref[k]) || ok != had || v != w {
				t.Fatalf("seed %d step %d: after %s relation %d has len %d and %s=%q (%v), model len %d and %q (%v)",
					seed, step, what, k, real[k].Len(), key, v, ok, len(ref[k]), w, had)
			}
			if step%25 != 0 {
				continue
			}
			if !sameAs(real[k], ref[k]) {
				t.Fatalf("seed %d step %d: after %s relation %d = %v (len %d), model %v (len %d)",
					seed, step, what, k, real[k], real[k].Len(), ref[k], len(ref[k]))
			}
			if got, want := real[k].Digest(), rebuilt(real[k], nil).Digest(); got != want {
				t.Fatalf("seed %d step %d: after %s relation %d = %v keeps digest %016x, rebuilt from its bindings %016x",
					seed, step, what, k, real[k], got, want)
			}
		}
	}
}

// TestRetainedVersionsAgainstModel: one relation goes through 3000
// random puts and deletes over 500 keys, and every version cloned on the
// way keeps exactly the bindings the model had then, by every reader.
func TestRetainedVersionsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r, m := New(), model{}
	versions, snapshots := []*Relation{r.Clone()}, []model{maps.Clone(m)}
	for i := 0; i < 3000; i++ {
		k := "k" + strconv.Itoa(rng.Intn(500))
		if rng.Intn(3) < 2 {
			v := strconv.Itoa(rng.Intn(1000))
			r.Put(k, v)
			m[k] = v
		} else {
			r.Delete(k)
			delete(m, k)
		}
		if i%250 == 0 {
			versions, snapshots = append(versions, r.Clone()), append(snapshots, maps.Clone(m))
		}
	}
	versions, snapshots = append(versions, r), append(snapshots, m)
	for i, v := range versions {
		if !sameAs(v, snapshots[i]) {
			t.Fatalf("version %d = %v (len %d), model %v (len %d)", i, v, v.Len(), snapshots[i], len(snapshots[i]))
		}
	}
}

// rebuilt returns a fresh relation holding r's bindings, put in key order
// or, with a source of randomness, in a shuffled one.
func rebuilt(r *Relation, rng *rand.Rand) *Relation {
	var kvs [][2]string
	r.Each(func(k, v string) bool {
		kvs = append(kvs, [2]string{k, v})
		return true
	})
	slices.SortFunc(kvs, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
	if rng != nil {
		rng.Shuffle(len(kvs), func(i, j int) { kvs[i], kvs[j] = kvs[j], kvs[i] })
	}
	return bitset(kvs...)
}

// TestFullHashCollisions drives the trie below the depth where the hash
// runs out: keys filed under one hash share a bucket, and every operation
// still finds, replaces and drops exactly its own key, persistently.
func TestFullHashCollisions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	hashes := []uint64{0, 1 << 63, 0x5555_5555_5555_5555}
	var root node
	m := model{}
	var versions []node
	var snapshots []model
	for step := 0; step < 2000; step++ {
		h := hashes[rng.Intn(len(hashes))]
		key := strconv.FormatUint(h, 16) + "/" + strconv.Itoa(rng.Intn(6))
		own := step < 200 // the first steps build in place, as a Builder does
		if rng.Intn(3) > 0 {
			val := strconv.Itoa(step)
			old, had := root.set(h, 0, key, val, own)
			if w, ok := m[key]; had != ok || old != w {
				t.Fatalf("step %d: set(%s) replaced %q, %v; model %q, %v", step, key, old, had, w, ok)
			}
			m[key] = val
		} else if !own {
			var old string
			var had bool
			root, old, had = root.without(h, 0, key)
			if w, ok := m[key]; had != ok || old != w {
				t.Fatalf("step %d: remove(%s) took %q, %v; model %q, %v", step, key, old, had, w, ok)
			}
			delete(m, key)
		}
		if !own && step%50 == 0 {
			versions, snapshots = append(versions, root), append(snapshots, maps.Clone(m))
		}
	}
	versions, snapshots = append(versions, root), append(snapshots, m)
	for i, v := range versions {
		got := model{}
		v.each(func(b *binding) bool { got[b.key] = b.val; return true })
		if !maps.Equal(got, snapshots[i]) {
			t.Fatalf("version %d holds %v, model %v", i, got, snapshots[i])
		}
		for k, want := range snapshots[i] {
			h, _ := strconv.ParseUint(k[:strings.IndexByte(k, '/')], 16, 64)
			if val, ok := v.get(h, k); !ok || val != want {
				t.Fatalf("version %d: get(%s) = %q, %v; want %q", i, k, val, ok, want)
			}
		}
	}
}

// TestBuilderEqualsPuts: a relation filled by a Builder, duplicates and
// all, is Equal to one built by Put in the same order, keeps the same
// digest, and behaves as any other version once handed out.
func TestBuilderEqualsPuts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		var b Builder
		want := New()
		for n := rng.Intn(3000); n > 0; n-- {
			k, v := strconv.Itoa(rng.Intn(1500)), strconv.Itoa(rng.Intn(4))
			b.Put(k, v)
			want.Put(k, v)
		}
		got := b.Done()
		if !got.Equal(want) || got.Digest() != want.Digest() || got.String() != want.String() {
			t.Fatalf("iter %d: built %v (digest %016x), put %v (digest %016x)", iter, got, got.Digest(), want, want.Digest())
		}
		if b.Done().Len() != 0 {
			t.Fatalf("iter %d: a builder hands out its relation twice", iter)
		}
		snap := got.String()
		c1, c2 := got.Clone(), got.Clone()
		for i := 0; i < 50; i++ {
			k := strconv.Itoa(rng.Intn(1600))
			c1.Put(k, "one")
			c2.Put(k, "two")
			c2.Delete(strconv.Itoa(rng.Intn(1600)))
		}
		if got.String() != snap {
			t.Fatalf("iter %d: writes to clones of a built relation reached it", iter)
		}
		if c1.Equal(c2) && c1.Len() > 0 {
			t.Fatalf("iter %d: sibling clones share writes", iter)
		}
	}
}

// TestDigestSeparatesWhatStringSeparates: over 10^4 random relations, a
// shuffled rebuild is Equal and digests the same, and a copy that differs
// by one binding more, one fewer, one value or one key digests
// differently — the digest tells apart exactly what the canonical
// rendering and Equal do.
func TestDigestSeparatesWhatStringSeparates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for pair := 0; pair < 10000; pair++ {
		a := New()
		for n := rng.Intn(9); n > 0; n-- {
			a.Put(strconv.Itoa(rng.Intn(12)), strconv.Itoa(rng.Intn(3)))
		}
		b := rebuilt(a, rng)
		if !a.Equal(b) || a.Digest() != b.Digest() || a.String() != b.String() {
			t.Fatalf("pair %d: %v and its shuffled rebuild %v: Equal %v, digests %016x %016x",
				pair, a, b, a.Equal(b), a.Digest(), b.Digest())
		}
		var keys []string
		b.Each(func(k, _ string) bool { keys = append(keys, k); return true })
		sort.Strings(keys)
		switch kind := rng.Intn(4); {
		case kind == 0 || len(keys) == 0: // one more binding, at a new key
			b.Put("new", "0")
		case kind == 1: // one binding fewer
			b.Delete(keys[rng.Intn(len(keys))])
		case kind == 2: // one value differs
			k := keys[rng.Intn(len(keys))]
			v, _ := b.Get(k)
			b.Put(k, v+"'")
		default: // one key differs
			k := keys[rng.Intn(len(keys))]
			v, _ := b.Get(k)
			b.Delete(k)
			b.Put(k+"'", v)
		}
		if a.String() == b.String() || a.Digest() == b.Digest() || a.Equal(b) {
			t.Fatalf("pair %d: %v and %v differ by one change but digest %016x and %016x", pair, a, b, a.Digest(), b.Digest())
		}
		if c := rebuilt(b, rng); c.Digest() != b.Digest() {
			t.Fatalf("pair %d: %v digests %016x, its shuffled rebuild %016x", pair, b, b.Digest(), c.Digest())
		}
	}
}

// filled returns a relation of n bindings.
func filled(n int) *Relation {
	r := New()
	for i := 0; i < n; i++ {
		r.Put(strconv.Itoa(i), "init")
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
	a.Put("7", "a")
	a.Delete("8")
	b.Put("7", "b")
	b.Put("new", "b")
	if orig.String() != want {
		t.Fatalf("writes to clones reached the original")
	}
	if v, _ := a.Get("7"); v != "a" || a.Len() != n-1 {
		t.Fatalf("clone a saw a sibling's writes or lost its own: len %d", a.Len())
	}
	if _, ok := a.Get("new"); ok {
		t.Fatalf("clone a saw a sibling's new key")
	}
	if v, _ := b.Get("7"); v != "b" || b.Len() != n+1 {
		t.Fatalf("clone b saw a sibling's writes or lost its own: len %d", b.Len())
	}
	if v, ok := b.Get("8"); !ok || v != "init" {
		t.Fatalf("clone b saw a sibling's delete")
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) { // a reader of the shared version
			defer wg.Done()
			for i := 0; i < n; i++ {
				k := strconv.Itoa((i*7 + w) % n)
				if v, ok := orig.Get(k); !ok || v != "init" {
					t.Errorf("reader %d: Get(%s) = %q, %v", w, k, v, ok)
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
				c.Put(strconv.Itoa(i), mine)
			}
			c.Each(func(k, v string) bool {
				if v != mine {
					t.Errorf("writer %d: clone holds %s=%s", w, k, v)
					return false
				}
				return true
			})
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
// representation, and what a point operation costs: a read allocates
// nothing, a clone at most the relation header, and a write, per trie
// level on its path, at most one node and one slice. At 16 bindings the
// probed key sits one level down; between 16 and 4096 bindings a 32-way
// trie gains at most 3 levels.
func TestPointOpsAreSizeIndependent(t *testing.T) {
	const extraLevels = 3
	small, large := filled(16), filled(4096)
	ops := []struct {
		name     string
		small    float64 // allocations at 16 bindings
		perLevel float64 // allocations one more trie level may add
		run      func(r *Relation) func()
	}{
		{"Get", 0, 0, func(r *Relation) func() { return func() { r.Get("5") } }},
		{"Clone", 1, 0, func(r *Relation) func() { return func() { _ = r.Clone() } }},
		{"Digest", 0, 0, func(r *Relation) func() { return func() { _ = r.Digest() } }},
		{"Put", 3, 2, func(r *Relation) func() { return func() { r.Clone().Put("5", "x") } }},
		{"Delete", 3, 2, func(r *Relation) func() { return func() { r.Clone().Delete("5") } }},
	}
	for _, op := range ops {
		s := testing.AllocsPerRun(100, op.run(small))
		l := testing.AllocsPerRun(100, op.run(large))
		if s > op.small {
			t.Errorf("%s: %.0f allocs at 16 bindings, want at most %.0f", op.name, s, op.small)
		}
		if l-s > op.perLevel*extraLevels {
			t.Errorf("%s: %.0f allocs at 16 bindings, %.0f at 4096: grows with size, not depth", op.name, s, l)
		}
	}
}
