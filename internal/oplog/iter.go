// Cursor view over Decomposer.Decompose's output, kept for the offline
// decomposition timing in benchmark/library.go.

package oplog

// LocInfo is one projection location of a decomposed log with its
// subsequence length.
type LocInfo struct {
	P PLoc
	N int
}

// SubseqIter is a cursor over one location's subsequence. The zero value
// is exhausted.
type SubseqIter struct {
	seq Log
}

// Next returns (event, true) until the subsequence is exhausted, then
// (nil, false) forever.
func (it *SubseqIter) Next() (*Event, bool) {
	if len(it.seq) == 0 {
		return nil, false
	}
	e := it.seq[0]
	it.seq = it.seq[1:]
	return e, true
}

// Stream decomposes l and returns its projection locations in
// first-access order. The slice is owned by the Decomposer and valid
// until its next Decompose, Stream or Release call.
func (d *Decomposer) Stream(l Log) []LocInfo {
	d.locs = d.locs[:0]
	for _, ps := range d.Decompose(l) {
		d.locs = append(d.locs, LocInfo{P: ps.P, N: len(ps.Seq)})
	}
	return d.locs
}

// Iter returns a cursor over the last decomposed log's subsequence at p;
// a location the log never accesses yields an empty iteration.
func (d *Decomposer) Iter(p PLoc) SubseqIter {
	if i := d.find(p); i >= 0 {
		return SubseqIter{seq: d.out[i].Seq}
	}
	return SubseqIter{}
}
