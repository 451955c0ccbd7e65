package workloads

import (
	"strconv"

	"repro/internal/adt"
	"repro/internal/state"
)

// Weka's colors (Figure 5), boxed once per process: every pixel and
// color-register store binds one of these three values.
var (
	wekaBackground state.Value = state.Str("background.darker.darker")
	wekaWhite      state.Value = state.Str("white")
	wekaBlack      state.Value = state.Str("black")
)

// pixel cuts the name canvas.<x>:<y>.
func (n *names) pixel(x, y int) {
	n.buf = append(n.buf, "canvas."...)
	n.buf = strconv.AppendInt(n.buf, int64(x), 10)
	n.buf = append(n.buf, ':')
	n.buf = strconv.AppendInt(n.buf, int64(y), 10)
	n.cut()
}

// Pixels a task paints: its node's oval (3×2) and label (2×1), and
// wekaLineSamples per incident edge.
const (
	wekaOvalPixels  = 6
	wekaLabelPixels = 2
	wekaLineSamples = 6
)

// wekaColorReg is the Graphics2D object's current-color register: every
// task calls g.setColor(...) on the one shared Graphics object, the
// write-write traffic that makes write-set detection abort every
// interleaved pair of rendering transactions. All tasks run the same
// setColor sequence with equal arguments, so sequence-based detection
// proves the stores equal (equal-writes).
const wekaColorReg = state.Loc("graphics.color")

// Weka reproduces the GraphVisualizer rendering loop of Figure 5: each
// task draws one graph node — the node's oval in the darkened background
// color, its label in white — and the edges incident to it in black. Both
// endpoint tasks of an edge draw the same line pixels with the same color,
// the equal-writes pattern: write-set detection conflicts on every shared
// pixel, while sequence-based detection proves the stores equal.
func Weka() *Workload {
	return &Workload{
		Name:            "weka",
		Version:         "3.6.4",
		Desc:            "Machine-learning library; Bayesian-network graph rendering",
		Patterns:        []string{"equal-writes"},
		TrainingInput:   "random Bayesian networks: 100 nodes, average degree 5 and 10",
		ProductionInput: "random Bayesian networks: 1000 nodes, average degree 5 and 10",
		Ordered:         false,
		NewState:        wekaState,
		Tasks:           wekaTasks,
		Relaxations:     nil,
		LocalWork:       20000,
	}
}

func wekaState() *state.State {
	// Pixels materialize on first draw.
	st := state.New()
	st.Set(wekaColorReg, state.Str(""))
	return st
}

// wekaNodePos lays nodes on a deterministic grid.
func wekaNodePos(v int) (x, y int) {
	const cols = 40
	return (v % cols) * 12, (v / cols) * 12
}

func wekaTasks(size Size, seed int64) []adt.Task {
	g := jgGraphFor(size, seed) // same Table 6 graph shapes
	w := Weka()
	// Name every pixel each task paints, in the order it paints them,
	// here rather than in the body; task v's names start at first[v].
	count := 0
	for _, nbs := range g.neighbors {
		count += wekaOvalPixels + wekaLabelPixels + wekaLineSamples*len(nbs)
	}
	n := names{buf: make([]byte, 0, count*len("canvas.000:000")), ends: make([]int, 0, count)}
	first := make([]int, g.n+1)
	var line [][2]int
	for v, nbs := range g.neighbors {
		first[v] = len(n.ends)
		x, y := wekaNodePos(v)
		for dx := 0; dx < 3; dx++ {
			for dy := 0; dy < 2; dy++ {
				n.pixel(x+dx, y+dy)
			}
		}
		for dx := 0; dx < 2; dx++ {
			n.pixel(x+dx, y+2)
		}
		for _, nb := range nbs {
			nx, ny := wekaNodePos(nb)
			line = linePixels(line[:0], x, y, nx, ny, wekaLineSamples)
			for _, p := range line {
				n.pixel(p[0], p[1])
			}
		}
	}
	first[g.n] = len(n.ends)
	pixels := split[state.Loc](&n)
	tasks := make([]adt.Task, g.n)
	for v := range tasks {
		own := pixels[first[v]:first[v+1]]
		oval := own[:wekaOvalPixels]
		label := own[wekaOvalPixels : wekaOvalPixels+wekaLabelPixels]
		lines := own[wekaOvalPixels+wekaLabelPixels:]
		tasks[v] = func(ex adt.Executor) error {
			colorReg := adt.StrVar{L: wekaColorReg}
			// g.setColor(this.getBackground().darker().darker())
			if err := colorReg.Store(ex, wekaBackground); err != nil {
				return err
			}
			if _, err := colorReg.Load(ex); err != nil {
				return err
			}
			// Node oval in the darkened background color (private pixels).
			for _, l := range oval {
				if err := (adt.StrVar{L: l}).Store(ex, wekaBackground); err != nil {
					return err
				}
			}
			// g.setColor(Color.white)
			if err := colorReg.Store(ex, wekaWhite); err != nil {
				return err
			}
			if _, err := colorReg.Load(ex); err != nil {
				return err
			}
			// Label in white (private pixels).
			for _, l := range label {
				if err := (adt.StrVar{L: l}).Store(ex, wekaWhite); err != nil {
					return err
				}
			}
			// Edges in black: g.setColor(Color.black) precedes every
			// drawLine call (cf. Figure 5), so the color register's
			// sequence length grows with the node's degree — fixed-length
			// cache keys miss on unseen degrees, while the Kleene-cross
			// abstraction collapses the store/load runs. Both endpoints
			// draw the full line, so the line pixels are written twice
			// with equal values.
			for k := 0; k < len(lines); k += wekaLineSamples {
				if err := colorReg.Store(ex, wekaBlack); err != nil {
					return err
				}
				if _, err := colorReg.Load(ex); err != nil {
					return err
				}
				for _, l := range lines[k : k+wekaLineSamples] {
					if err := (adt.StrVar{L: l}).Store(ex, wekaBlack); err != nil {
						return err
					}
				}
			}
			adt.LocalWork(ex, int64(w.LocalWork))
			return nil
		}
	}
	return tasks
}

// linePixels appends to dst n points sampled on the segment
// (x0,y0)–(x1,y1), deterministically and symmetrically (both endpoints
// produce identical pixels for the same edge).
func linePixels(dst [][2]int, x0, y0, x1, y1, n int) [][2]int {
	// Canonicalize the endpoint order so both tasks sample identically.
	if x1 < x0 || (x1 == x0 && y1 < y0) {
		x0, y0, x1, y1 = x1, y1, x0, y0
	}
	for i := 1; i <= n; i++ {
		px := x0 + (x1-x0)*i/(n+1)
		py := y0 + (y1-y0)*i/(n+1)
		dst = append(dst, [2]int{px, py})
	}
	return dst
}
