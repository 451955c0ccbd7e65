// Render: the Weka GraphVisualizer pattern (paper Figure 5).
//
// Tasks render one graph node each onto a single shared Graphics surface:
// every task sets the shared current-color register (background, white,
// black) and paints pixels. Node bodies are private, but edges are drawn
// by both endpoint tasks — same pixels, same color — and every task writes
// the same values to the color register: the equal-writes pattern.
// Write-set detection aborts any interleaved pair; sequence-based
// detection proves the stores equal and lets rendering proceed in
// parallel. This example also demonstrates shipping a trained
// specification (SaveSpec/LoadSpec) instead of retraining in production.
//
// Run with: go run ./examples/render
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"repro"
)

const (
	nodes = 80
	cols  = 10
)

// The three colors, boxed once: every store binds one of these values.
var (
	bg    = janus.Value(janus.Str("darkgray"))
	white = janus.Value(janus.Str("white"))
	black = janus.Value(janus.Str("black"))
)

func pixelLoc(x, y int) janus.Loc { return janus.Loc(fmt.Sprintf("px.%d:%d", x, y)) }

func nodePos(v int) (int, int) { return (v % cols) * 10, (v / cols) * 10 }

// renderTask names every pixel the task paints when it builds the task,
// in painting order: a retry runs the body again, and a body that
// formatted its names would pay for them on every run.
func renderTask(colorReg janus.StrVar, v int, neighbors []int) janus.Task {
	x, y := nodePos(v)
	var oval []janus.Loc
	for dx := 0; dx < 3; dx++ {
		oval = append(oval, pixelLoc(x+dx, y))
	}
	label := pixelLoc(x, y+1)
	// Edges: both endpoints draw the same midpoint pixels in black.
	var edges [][]janus.Loc
	for _, nb := range neighbors {
		a, b := v, nb
		if b < a {
			a, b = b, a
		}
		ax, ay := nodePos(a)
		bx, by := nodePos(b)
		var line []janus.Loc
		for i := 1; i <= 3; i++ {
			line = append(line, pixelLoc(ax+(bx-ax)*i/4, ay+(by-ay)*i/4))
		}
		edges = append(edges, line)
	}
	return func(ex janus.Executor) error {
		setColor := func(c janus.Value) error {
			if err := colorReg.Store(ex, c); err != nil {
				return err
			}
			_, err := colorReg.Load(ex)
			return err
		}
		paint := func(px janus.Loc, c janus.Value) error {
			return janus.StrVar{L: px}.Store(ex, c)
		}
		// Node oval.
		if err := setColor(bg); err != nil {
			return err
		}
		for _, px := range oval {
			if err := paint(px, bg); err != nil {
				return err
			}
		}
		// Label.
		if err := setColor(white); err != nil {
			return err
		}
		if err := paint(label, white); err != nil {
			return err
		}
		for _, line := range edges {
			if err := setColor(black); err != nil {
				return err
			}
			for _, px := range line {
				if err := paint(px, black); err != nil {
					return err
				}
			}
		}
		time.Sleep(200 * time.Microsecond) // rasterization work
		return nil
	}
}

func main() {
	st := janus.NewState()
	colorReg := janus.InitStrVar(st, "graphics.color", "")

	neighbors := make([][]int, nodes)
	for v := 0; v < nodes; v++ {
		for _, d := range []int{1, cols} { // grid edges
			if v+d < nodes {
				neighbors[v] = append(neighbors[v], v+d)
				neighbors[v+d] = append(neighbors[v+d], v)
			}
		}
	}
	var tasks []janus.Task
	for v := 0; v < nodes; v++ {
		tasks = append(tasks, renderTask(colorReg, v, neighbors[v]))
	}

	// Train once, ship the spec, load it into a fresh production runner.
	trainer := janus.New(janus.Config{})
	if err := trainer.Train(st, tasks[:8]); err != nil {
		log.Fatal(err)
	}
	var spec bytes.Buffer
	if err := trainer.SaveSpec(&spec); err != nil {
		log.Fatal(err)
	}
	// LearnOnline covers what the short training prefix missed (corner
	// and border nodes have different degrees, so their color-register
	// sequences have unseen shapes): the runner proves and caches those
	// conditions at first sight instead of falling back to write-set.
	prod := janus.New(janus.Config{Threads: 8, LearnOnline: true})
	if err := prod.LoadSpec(bytes.NewReader(spec.Bytes())); err != nil {
		log.Fatal(err)
	}

	final, stats, err := prod.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}
	baseline := janus.New(janus.Config{Threads: 8, Detection: janus.DetectWriteSet})
	_, wsStats, err := baseline.Run(st, tasks)
	if err != nil {
		log.Fatal(err)
	}

	painted := 0
	for _, loc := range final.Locs() {
		if len(loc) > 3 && loc[:3] == "px." {
			painted++
		}
	}
	fmt.Printf("rendered %d nodes, %d pixels painted\n", nodes, painted)
	fmt.Printf("spec: %d entries after shipping + online learning\n", prod.CacheStats().Entries)
	fmt.Printf("sequence-based: %d retries; write-set: %d retries\n",
		stats.Run.Retries, wsStats.Run.Retries)
}
