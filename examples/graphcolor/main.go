// Graphcolor: the JGraphT greedy-coloring pattern (paper Figure 3).
//
// Each task colors one node: it clears a shared usedColors scratch pad,
// marks the colors of already-colored neighbors, picks the smallest free
// color, writes it, and raises the shared maxColor if needed. usedColors
// is shared-as-local (every reader first overwrites), and maxColor is
// spuriously read (stale reads are harmless because conflicting writes
// still abort) — both declared via §5.3 consistency relaxations. Real
// read-write dependencies on neighbor colors remain and correctly abort
// tasks whose neighbors were colored concurrently.
//
// Run with: go run ./examples/graphcolor
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro"
)

const (
	nodes  = 120
	degree = 4
)

// colorLocs names every node's color location, once, before any task
// runs: a task body indexes the table instead of formatting a name on
// every run.
func colorLocs() []janus.Loc {
	locs := make([]janus.Loc, nodes)
	for v := range locs {
		locs[v] = janus.Loc(fmt.Sprintf("color.%d", v))
	}
	return locs
}

func colorTask(used janus.BitSet, maxColor janus.Counter, colors []janus.Loc, v int, neighbors []int) janus.Task {
	return func(ex janus.Executor) error {
		if err := used.ClearAll(ex); err != nil {
			return err
		}
		for _, nb := range neighbors {
			c, err := (janus.Counter{L: colors[nb]}).Load(ex)
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
		time.Sleep(150 * time.Microsecond) // surrounding application work
		if err := (janus.Counter{L: colors[v]}).Store(ex, color); err != nil {
			return err
		}
		cur, err := maxColor.Load(ex)
		if err != nil {
			return err
		}
		if color > cur {
			return maxColor.Store(ex, color)
		}
		return nil
	}
}

func main() {
	rng := rand.New(rand.NewSource(42))
	neighbors := make([][]int, nodes)
	for e := 0; e < nodes*degree/2; e++ {
		u, v := rng.Intn(nodes), rng.Intn(nodes)
		if u == v {
			continue
		}
		neighbors[u] = append(neighbors[u], v)
		neighbors[v] = append(neighbors[v], u)
	}

	st := janus.NewState()
	used := janus.InitBitSet(st, "usedColors")
	maxColor := janus.InitCounter(st, "maxColor", 1)
	colors := colorLocs()
	for _, l := range colors {
		janus.InitCounter(st, l, 0)
	}

	var tasks []janus.Task
	for v := 0; v < nodes; v++ {
		tasks = append(tasks, colorTask(used, maxColor, colors, v, neighbors[v]))
	}

	relax := janus.NewRelaxations(
		[]janus.Loc{"maxColor", "usedColors"},
		[]janus.Loc{"usedColors"},
	)
	runner := janus.New(janus.Config{Threads: 8, Relax: relax})
	if err := runner.Train(st, tasks[:10]); err != nil {
		log.Fatal(err)
	}
	final, stats, err := runner.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}

	// Verify the coloring invariant: adjacent nodes differ.
	colorOf := make([]int64, nodes)
	maxSeen := int64(0)
	for v := 0; v < nodes; v++ {
		val, ok := final.Get(colors[v])
		if !ok {
			log.Fatalf("node %d uncolored", v)
		}
		c := int64(0)
		fmt.Sscanf(val.String(), "%d", &c)
		colorOf[v] = c
		if c > maxSeen {
			maxSeen = c
		}
	}
	for v := 0; v < nodes; v++ {
		if colorOf[v] <= 0 {
			log.Fatalf("node %d uncolored", v)
		}
		for _, nb := range neighbors[v] {
			if colorOf[v] == colorOf[nb] {
				log.Fatalf("invalid coloring: %d and %d share color %d", v, nb, colorOf[v])
			}
		}
	}
	fmt.Printf("colored %d nodes with %d colors (valid greedy coloring)\n", nodes, maxSeen)
	fmt.Printf("commits=%d retries=%d (aborts only where neighbors raced)\n",
		stats.Run.Commits, stats.Run.Retries)
}
