package adt

import (
	"fmt"
	"strconv"

	"repro/internal/state"
)

// This file defines the typed handles through which tasks access shared
// objects. A handle is a value identifying a shared location; its methods
// submit ops to an Executor and decode observed values.

// Counter is a shared integer supporting the accumulate/restore patterns
// of Figures 1–2 (identity, reduction).
type Counter struct{ L state.Loc }

// Add adds n to the counter.
func (c Counter) Add(ex Executor, n int64) error {
	_, err := ex.Exec(NumAddOp{L: c.L, Delta: n}.Op())
	return err
}

// Sub subtracts n from the counter.
func (c Counter) Sub(ex Executor, n int64) error { return c.Add(ex, -n) }

// Store overwrites the counter.
func (c Counter) Store(ex Executor, n int64) error {
	_, err := ex.Exec(NumStoreOp{L: c.L, V: n}.Op())
	return err
}

// Load reads the counter.
func (c Counter) Load(ex Executor) (int64, error) {
	v, err := ex.Exec(NumLoadOp{L: c.L}.Op())
	if err != nil {
		return 0, err
	}
	return int64(v.(state.Int)), nil
}

// StrVar is a shared string variable (the shared-as-local fields of
// Figure 4, e.g. ctx.sourceCodeFilename).
type StrVar struct{ L state.Loc }

// Store overwrites the variable with v, a state.Str the caller boxed:
// box the strings a task set stores where the task set is built, as its
// location names are, and every store, retry and rerun binds the same box
// without allocating. A value of another type is refused.
func (s StrVar) Store(ex Executor, v state.Value) error {
	if _, ok := v.(state.Str); !ok {
		return fmt.Errorf("adt: string %s: cannot store %T", s.L, v)
	}
	_, err := ex.Exec(StrStoreOp{L: s.L, V: v}.Op())
	return err
}

// Load reads the variable.
func (s StrVar) Load(ex Executor) (string, error) {
	v, err := ex.Exec(StrLoadOp{L: s.L}.Op())
	if err != nil {
		return "", err
	}
	return string(v.(state.Str)), nil
}

// BoolVar is a shared boolean (e.g. progress.isCanceled of Figure 2).
type BoolVar struct{ L state.Loc }

// Store overwrites the variable.
func (b BoolVar) Store(ex Executor, v bool) error {
	_, err := ex.Exec(BoolStoreOp{L: b.L, V: v}.Op())
	return err
}

// Load reads the variable.
func (b BoolVar) Load(ex Executor) (bool, error) {
	v, err := ex.Exec(BoolLoadOp{L: b.L}.Op())
	if err != nil {
		return false, err
	}
	return bool(v.(state.Bool)), nil
}

// Stack is a shared integer stack (the monitor.itemsStarted /
// monitor.itemsWeight vectors of Figure 2, whose balanced add/remove calls
// exhibit the identity pattern).
type Stack struct{ L state.Loc }

// Push appends v.
func (s Stack) Push(ex Executor, v int64) error {
	_, err := ex.Exec(ListPushOp{L: s.L, V: v}.Op())
	return err
}

// Pop removes and returns the top element.
func (s Stack) Pop(ex Executor) (int64, error) {
	v, err := ex.Exec(ListPopOp{L: s.L}.Op())
	if err != nil {
		return 0, err
	}
	return int64(v.(state.Int)), nil
}

// Size returns the number of elements.
func (s Stack) Size(ex Executor) (int64, error) {
	v, err := ex.Exec(ListSizeOp{L: s.L}.Op())
	if err != nil {
		return 0, err
	}
	return int64(v.(state.Int)), nil
}

// BitSet is a shared bit set with the §6.1 relational abstraction: a
// 2-ary relation mapping integral indices to boolean values (the
// usedColors object of Figure 3).
type BitSet struct{ L state.Loc }

// Set sets bit i.
func (b BitSet) Set(ex Executor, i int) error {
	_, err := ex.Exec(RelPutOp{L: b.L, Key: strconv.Itoa(i), Val: "1"}.Op())
	return err
}

// Clear clears bit i.
func (b BitSet) Clear(ex Executor, i int) error {
	_, err := ex.Exec(RelRemoveOp{L: b.L, Key: strconv.Itoa(i)}.Op())
	return err
}

// Get reads bit i.
func (b BitSet) Get(ex Executor, i int) (bool, error) {
	v, err := ex.Exec(RelHasOp{L: b.L, Key: strconv.Itoa(i)}.Op())
	if err != nil {
		return false, err
	}
	return bool(v.(state.Bool)), nil
}

// ClearAll clears every bit.
func (b BitSet) ClearAll(ex Executor) error {
	_, err := ex.Exec(RelClearOp{L: b.L}.Op())
	return err
}

// KVMap is a shared string-keyed map (the RuleContext attribute table of
// Figure 4).
type KVMap struct{ L state.Loc }

// Put binds key to val. AbsentVal is refused: a get could not tell it
// from an unbound key, and the effect analysis reads a put of it as a
// remove.
func (m KVMap) Put(ex Executor, key, val string) error {
	if val == AbsentVal {
		return fmt.Errorf("adt: map %s[%s]: value %q is reserved for an absent key", m.L, key, val)
	}
	_, err := ex.Exec(RelPutOp{L: m.L, Key: key, Val: val}.Op())
	return err
}

// Get reads the value bound to key; ok is false for an absent key.
func (m KVMap) Get(ex Executor, key string) (val string, ok bool, err error) {
	v, err := ex.Exec(RelGetOp{L: m.L, Key: key}.Op())
	if err != nil {
		return "", false, err
	}
	s := string(v.(state.Str))
	if s == AbsentVal {
		return "", false, nil
	}
	return s, true, nil
}

// Has reports whether key is bound.
func (m KVMap) Has(ex Executor, key string) (bool, error) {
	v, err := ex.Exec(RelHasOp{L: m.L, Key: key}.Op())
	if err != nil {
		return false, err
	}
	return bool(v.(state.Bool)), nil
}

// Remove unbinds key.
func (m KVMap) Remove(ex Executor, key string) error {
	_, err := ex.Exec(RelRemoveOp{L: m.L, Key: key}.Op())
	return err
}

// IntArray is a shared integer array with relational abstraction
// (the color[] array of Figure 3). Unset indices read as zero.
type IntArray struct{ L state.Loc }

// Set writes a[i] = v.
func (a IntArray) Set(ex Executor, i int, v int64) error {
	_, err := ex.Exec(RelPutOp{L: a.L, Key: strconv.Itoa(i), Val: strconv.FormatInt(v, 10)}.Op())
	return err
}

// Get reads a[i] (zero when unset).
func (a IntArray) Get(ex Executor, i int) (int64, error) {
	v, err := ex.Exec(RelGetOp{L: a.L, Key: strconv.Itoa(i)}.Op())
	if err != nil {
		return 0, err
	}
	s := string(v.(state.Str))
	if s == AbsentVal {
		return 0, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("adt: array %s[%d] holds %q: %w", a.L, i, s, err)
	}
	return n, nil
}

// Canvas is a shared pixel raster (the Graphics2D object of Figure 5).
// Each pixel is a relational key; drawing writes the pixel's color, so two
// tasks drawing the same color to the same pixel exhibit the equal-writes
// pattern.
type Canvas struct{ L state.Loc }

// DrawPixel paints pixel (x, y) with color; AbsentVal is refused, as
// for KVMap.Put.
func (c Canvas) DrawPixel(ex Executor, x, y int, color string) error {
	if color == AbsentVal {
		return fmt.Errorf("adt: canvas %s(%d,%d): color %q is reserved for an absent key", c.L, x, y, color)
	}
	key := strconv.Itoa(x) + ":" + strconv.Itoa(y)
	_, err := ex.Exec(RelPutOp{L: c.L, Key: key, Val: color}.Op())
	return err
}
