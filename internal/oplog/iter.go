// Cursor view over Decomposer.Decompose's output, kept for the offline
// decomposition timing in benchmark/library.go.

package oplog

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
// first-access order (its index). The slice is owned by the Decomposer
// and valid until its next Index, Decompose, Stream or Release call.
func (d *Decomposer) Stream(l Log) []LocInfo {
	d.Decompose(l)
	return d.infos
}

// Iter returns a cursor over the last decomposed log's subsequence at p;
// a location the log never accesses yields an empty iteration.
func (d *Decomposer) Iter(p PLoc) SubseqIter {
	if i := d.find(p); i >= 0 {
		return SubseqIter{seq: d.out[i].Seq}
	}
	return SubseqIter{}
}
