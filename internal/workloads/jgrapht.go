package workloads

import (
	"math/rand"
	"sync"

	"repro/internal/adt"
	"repro/internal/conflict"
	"repro/internal/state"
)

// JGraphT locations.
const (
	jgMaxColor   = state.Loc("maxColor")
	jgUsedColors = state.Loc("usedColors")
	jgTotalSat   = state.Loc("stats.totalSaturation")
	jgVisited    = state.Loc("visited")
)

// jgMaxNodes is the node count of the largest input; jgBuckets is the
// saturation histogram's size.
const (
	jgMaxNodes = 1000
	jgBuckets  = 32
)

// jgNames holds JGraphT's indexed locations: color.<v>, degree.<v>,
// saturation.<v> and order.<i> for every node of the largest input, and
// histogram.<b> per bucket.
type jgNames struct {
	color, degree, sat, order, hist []state.Loc
}

// jgLocs builds the name tables once per process; states and task bodies
// index them.
var jgLocs = sync.OnceValue(func() *jgNames {
	return &jgNames{
		color:  numbered("color.", jgMaxNodes, 0),
		degree: numbered("degree.", jgMaxNodes, 0),
		sat:    numbered("saturation.", jgMaxNodes, 0),
		order:  numbered("order.", jgMaxNodes, 0),
		hist:   numbered("histogram.", jgBuckets, 0),
	}
})

// graph is a deterministic random simple graph (the Table 6 inputs).
type graph struct {
	n         int
	neighbors [][]int
}

// newGraph builds an Erdős–Rényi-style simple graph with the requested
// average degree.
func newGraph(n, avgDegree int, r *rand.Rand) *graph {
	g := &graph{n: n, neighbors: make([][]int, n)}
	edges := n * avgDegree / 2
	seen := make(map[[2]int]struct{}, edges)
	for len(seen) < edges {
		u, v := r.Intn(n), r.Intn(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int{u, v}
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		g.neighbors[u] = append(g.neighbors[u], v)
		g.neighbors[v] = append(g.neighbors[v], u)
	}
	return g
}

func jgGraphFor(size Size, seed int64) *graph {
	r := rng(seed)
	var n, deg int
	switch size {
	case Training:
		n = 100
		deg = 5
		if seed%2 == 1 {
			deg = 10
		}
	case Production:
		n = 1000
		deg = 5
		if seed%2 == 1 {
			deg = 10
		}
	default:
		n = 60
		deg = 5
	}
	return newGraph(n, deg, r)
}

// JGraphT1 reproduces the greedy graph-coloring loop of Figure 3: per
// node, the shared usedColors scratch pad is cleared and repopulated from
// the neighbors' colors (shared-as-local), the node's color is chosen and
// written, and maxColor is read and conditionally raised (spurious-reads).
//
// The sequential greedy algorithm fixes a traversal order, but any serial
// order yields a valid coloring, so the loop runs with unordered commits
// (JANUS's out-of-order mode with automatic WAW-dependence inference,
// §5.3); conflict detection still aborts a task whose neighbor was
// colored concurrently, which is what makes this the paper's
// highest-retry benchmark.
func JGraphT1() *Workload {
	return &Workload{
		Name:            "jgrapht1",
		Version:         "0.8.1",
		Desc:            "Greedy graph-coloring algorithm",
		Patterns:        []string{"shared-as-local", "spurious-reads"},
		TrainingInput:   "random simple graphs: 100 nodes, average degree 5 and 10",
		ProductionInput: "random simple graphs: 1000 nodes, average degree 5 and 10",
		Ordered:         false,
		NewState:        jg1State,
		Tasks:           jg1Tasks,
		Relaxations: conflict.NewRelaxations(
			[]state.Loc{jgMaxColor, jgUsedColors},
			[]state.Loc{jgUsedColors},
		),
		LocalWork: 6000,
	}
}

func jg1State() *state.State {
	st := state.New()
	st.Set(jgMaxColor, state.Int(1))
	st.Set(jgUsedColors, adt.NewRelValue())
	// Colors materialize lazily: color.<v> is bound to 0 up front so
	// loads are defined for every node of the largest input.
	for _, l := range jgLocs().color {
		st.Set(l, state.Int(0))
	}
	return st
}

func jg1Tasks(size Size, seed int64) []adt.Task {
	g := jgGraphFor(size, seed)
	w := JGraphT1()
	colors := jgLocs().color
	tasks := make([]adt.Task, g.n)
	for i := 0; i < g.n; i++ {
		v := i
		nbs := g.neighbors[v]
		tasks[i] = func(ex adt.Executor) error {
			used := adt.BitSet{L: jgUsedColors}
			maxColor := adt.Counter{L: jgMaxColor}
			if err := used.ClearAll(ex); err != nil {
				return err
			}
			for _, nb := range nbs {
				c, err := adt.Counter{L: colors[nb]}.Load(ex)
				if err != nil {
					return err
				}
				if c > 0 {
					if err := used.Set(ex, int(c)); err != nil {
						return err
					}
				}
			}
			color := int64(1)
			for {
				taken, err := used.Get(ex, int(color))
				if err != nil {
					return err
				}
				if !taken {
					break
				}
				color++
			}
			if err := (adt.Counter{L: colors[v]}).Store(ex, color); err != nil {
				return err
			}
			cur, err := maxColor.Load(ex)
			if err != nil {
				return err
			}
			if color > cur {
				if err := maxColor.Store(ex, color); err != nil {
					return err
				}
			}
			adt.LocalWork(ex, int64(w.LocalWork))
			return nil
		}
	}
	return tasks
}

// JGraphT2 reproduces the saturation-degree node-ordering heuristic
// (largestSaturationFirstOrder): every task makes intensive access to six
// shared containers — per-node degree (read-only), per-node saturation
// accumulators (reduction), a coloring bit set, the output order slots,
// a saturation histogram (reduction), and a global saturation total
// (reduction). The accesses commute under sequence-based detection, but
// the transactions are dominated by shared-state traffic, so the paper
// observes negligible speedup despite very low retry rates.
func JGraphT2() *Workload {
	return &Workload{
		Name:            "jgrapht2",
		Version:         "0.8.1",
		Desc:            "Saturation-degree node-ordering heuristic for graph coloring",
		Patterns:        []string{"shared-as-local", "equal-writes", "reduction"},
		TrainingInput:   "random simple graphs: 100 nodes, average degree 5 and 10",
		ProductionInput: "random simple graphs: 1000 nodes, average degree 5 and 10",
		Ordered:         false,
		NewState:        jg2State,
		Tasks:           jg2Tasks,
		Relaxations:     nil,
		LocalWork:       3000,
	}
}

func jg2State() *state.State {
	st := state.New()
	st.Set(jgTotalSat, state.Int(0))
	st.Set(jgVisited, adt.NewRelValue())
	locs := jgLocs()
	for v := 0; v < jgMaxNodes; v++ {
		st.Set(locs.degree[v], state.Int(0))
		st.Set(locs.sat[v], state.Int(0))
		st.Set(locs.order[v], state.Int(-1))
	}
	for _, l := range locs.hist {
		st.Set(l, state.Int(0))
	}
	return st
}

func jg2Tasks(size Size, seed int64) []adt.Task {
	g := jgGraphFor(size, seed)
	w := JGraphT2()
	locs := jgLocs()
	tasks := make([]adt.Task, g.n)
	for i := 0; i < g.n; i++ {
		v := i
		nbs := g.neighbors[v]
		slot := i
		tasks[i] = func(ex adt.Executor) error {
			// Accumulate this node's contribution to each neighbor's
			// saturation (reduction on shared counters).
			for _, nb := range nbs {
				if err := (adt.Counter{L: locs.sat[nb]}).Add(ex, 1); err != nil {
					return err
				}
			}
			// Read-only degree scan.
			var degSum int64
			for _, nb := range nbs {
				d, err := adt.Counter{L: locs.degree[nb]}.Load(ex)
				if err != nil {
					return err
				}
				degSum += d
			}
			// Mark the node visited (own key of the shared bit set).
			if err := (adt.BitSet{L: jgVisited}).Set(ex, v); err != nil {
				return err
			}
			// Own output slot (disjoint across tasks).
			if err := (adt.Counter{L: locs.order[slot]}).Store(ex, int64(v)); err != nil {
				return err
			}
			// Histogram and total (reductions on hot shared counters).
			bucket := int(degSum) % jgBuckets
			if bucket < 0 {
				bucket = -bucket
			}
			if err := (adt.Counter{L: locs.hist[bucket]}).Add(ex, 1); err != nil {
				return err
			}
			if err := (adt.Counter{L: jgTotalSat}).Add(ex, int64(len(nbs))); err != nil {
				return err
			}
			adt.LocalWork(ex, int64(w.LocalWork))
			return nil
		}
	}
	return tasks
}
