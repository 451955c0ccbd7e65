// Package workloads re-creates the five real-world benchmarks of the
// JANUS evaluation (§7, Tables 5–6) as Go task sets. The original
// benchmarks are large Java applications; what the evaluation measures is
// the precision of conflict detection on the parallelized loops'
// shared-state access patterns, so each workload reproduces exactly the
// access pattern of the corresponding figure in the paper (Figures 1–5)
// against the same ADTs, with calibrated local computation standing in for
// the surrounding application work (see DESIGN.md's substitution table).
//
// | Benchmark | Parallelized loop                     | Patterns (Table 5)              |
// |-----------|---------------------------------------|---------------------------------|
// | JFileSync | directory-pair comparison (Fig 2)     | identity, shared-as-local       |
// | JGraphT-1 | greedy graph coloring (Fig 3)         | shared-as-local, spurious-reads |
// | JGraphT-2 | saturation-degree ordering            | shared-as-local, equal-writes   |
// | PMD       | per-file source analysis (Fig 4)      | shared-as-local, reduction      |
// | Weka      | graph rendering (Fig 5)               | equal-writes                    |
package workloads

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/state"
)

// Size selects between the training and production inputs of Table 6.
type Size int

// Input sizes.
const (
	Training Size = iota
	Production
	// Small is a reduced production input for fast tests.
	Small
)

// String renders the size.
func (s Size) String() string {
	switch s {
	case Training:
		return "training"
	case Production:
		return "production"
	default:
		return "small"
	}
}

// Workload is one benchmark of the suite.
type Workload struct {
	// Name and Version mirror Table 5.
	Name    string
	Version string
	Desc    string
	// Patterns lists the prevalent commutative patterns (Table 5).
	Patterns []string
	// TrainingInput and ProductionInput describe the Table 6 inputs.
	TrainingInput   string
	ProductionInput string
	// Ordered reports whether the loop requires in-order commits (the
	// greedy coloring algorithm mandates ordered traversal).
	Ordered bool
	// NewState builds the initial shared state.
	NewState func() *state.State
	// Tasks builds the task set for a size and seed. Distinct seeds give
	// the paper's distinct training/production runs.
	Tasks func(size Size, seed int64) []adt.Task
	// Relaxations is the per-benchmark consistency-relaxation
	// specification (§5.3); nil when the benchmark needs none.
	Relaxations *conflict.Relaxations
	// LocalWork is the calibrated per-task computation weight; exposed
	// so ablations can scale it.
	LocalWork int
}

// TrainingPayloads returns the paper's five training runs: the two
// Table 6 training inputs under distinct seeds.
func (w *Workload) TrainingPayloads() [][]adt.Task {
	out := make([][]adt.Task, 0, 5)
	for i := 0; i < 5; i++ {
		out = append(out, w.Tasks(Training, int64(1000+i)))
	}
	return out
}

// All returns the benchmark suite in the paper's presentation order.
func All() []*Workload {
	return []*Workload{
		JFileSync(),
		JGraphT1(),
		JGraphT2(),
		PMD(),
		Weka(),
	}
}

// ByName retrieves a workload.
func ByName(name string) (*Workload, error) {
	for _, w := range All() {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// rng returns a deterministic generator for a task set.
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// names builds a set of location names into one byte buffer and cuts
// them all from one string, so a set of any size costs a few allocations
// when it is built and none when a task body uses it. A task reads a
// location by indexing the set, the way the paper's loops reach a field
// or an array element (DESIGN.md §19).
type names struct {
	buf  []byte
	ends []int
}

// num appends v in decimal, zero-padded to width digits.
func (n *names) num(v, width int) {
	for p := 10; width > 1; width, p = width-1, p*10 {
		if v < p {
			n.buf = append(n.buf, '0')
		}
	}
	n.buf = strconv.AppendInt(n.buf, int64(v), 10)
}

// cut ends the name being built.
func (n *names) cut() { n.ends = append(n.ends, len(n.buf)) }

// split returns every name n has cut, in order, sliced from one string.
func split[S ~string](n *names) []S {
	s := string(n.buf)
	out := make([]S, len(n.ends))
	start := 0
	for i, end := range n.ends {
		out[i] = S(s[start:end])
		start = end
	}
	return out
}

// numbered returns prefix+"0" … prefix+(count-1), each number zero-padded
// to width digits.
func numbered(prefix string, count, width int) []state.Loc {
	var n names
	for i := 0; i < count; i++ {
		n.buf = append(n.buf, prefix...)
		n.num(i, width)
		n.cut()
	}
	return split[state.Loc](&n)
}
