package persist

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestMapBasics(t *testing.T) {
	m := NewMap[int]()
	if m.Len() != 0 {
		t.Fatalf("empty map Len = %d", m.Len())
	}
	if _, ok := m.Get("x"); ok {
		t.Fatalf("empty map must not contain x")
	}
	m1 := m.Set("x", 1)
	m2 := m1.Set("y", 2)
	m3 := m2.Set("x", 10)
	if v, _ := m1.Get("x"); v != 1 {
		t.Errorf("m1[x] = %d, want 1 (persistence violated)", v)
	}
	if v, _ := m3.Get("x"); v != 10 {
		t.Errorf("m3[x] = %d, want 10", v)
	}
	if v, _ := m3.Get("y"); v != 2 {
		t.Errorf("m3[y] = %d, want 2", v)
	}
	if m1.Len() != 1 || m2.Len() != 2 || m3.Len() != 2 {
		t.Errorf("lengths: %d %d %d", m1.Len(), m2.Len(), m3.Len())
	}
}

func TestMapDelete(t *testing.T) {
	m := NewMap[string]().Set("a", "1").Set("b", "2")
	d := m.Delete("a")
	if _, ok := d.Get("a"); ok {
		t.Errorf("a must be gone")
	}
	if v, ok := d.Get("b"); !ok || v != "2" {
		t.Errorf("b must survive")
	}
	if _, ok := m.Get("a"); !ok {
		t.Errorf("original version must keep a")
	}
	same := d.Delete("zzz")
	if same != d {
		t.Errorf("deleting an absent key must return the same version")
	}
}

func TestMapManyKeysAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMap[int]()
	model := map[string]int{}
	versions := []*Map[int]{m}
	snapshots := []map[string]int{copyModel(model)}
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("k%d", rng.Intn(500))
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Intn(1000)
			m = m.Set(k, v)
			model[k] = v
		case 2:
			m = m.Delete(k)
			delete(model, k)
		}
		if i%250 == 0 {
			versions = append(versions, m)
			snapshots = append(snapshots, copyModel(model))
		}
	}
	versions = append(versions, m)
	snapshots = append(snapshots, copyModel(model))
	for vi, ver := range versions {
		snap := snapshots[vi]
		if ver.Len() != len(snap) {
			t.Fatalf("version %d: Len=%d, model=%d", vi, ver.Len(), len(snap))
		}
		for k, want := range snap {
			if got, ok := ver.Get(k); !ok || got != want {
				t.Fatalf("version %d: %s = %d,%v; want %d", vi, k, got, ok, want)
			}
		}
		count := 0
		ver.Range(func(k string, v int) bool {
			if snap[k] != v {
				t.Fatalf("version %d: Range yields %s=%d, model %d", vi, k, v, snap[k])
			}
			count++
			return true
		})
		if count != len(snap) {
			t.Fatalf("version %d: Range visited %d, want %d", vi, count, len(snap))
		}
	}
}

func copyModel(m map[string]int) map[string]int {
	c := make(map[string]int, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

func TestMapRangeEarlyStop(t *testing.T) {
	m := NewMap[int]().Set("a", 1).Set("b", 2).Set("c", 3)
	n := 0
	m.Range(func(string, int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("Range visited %d after early stop, want 2", n)
	}
}

func TestMapNilReceiver(t *testing.T) {
	var m *Map[int]
	if m.Len() != 0 {
		t.Errorf("nil map Len != 0")
	}
	if _, ok := m.Get("x"); ok {
		t.Errorf("nil map must be empty")
	}
	m2 := m.Set("x", 1)
	if v, _ := m2.Get("x"); v != 1 {
		t.Errorf("Set on nil map failed")
	}
	if m.Delete("x") != m {
		t.Errorf("Delete on nil map must return receiver")
	}
	m.Range(func(string, int) bool { t.Error("nil map Range must not call fn"); return true })
}

func TestStrings(t *testing.T) {
	if NewMap[int]().Set("a", 1).String() != "persist.Map(len=1)" {
		t.Errorf("map String wrong")
	}
}
