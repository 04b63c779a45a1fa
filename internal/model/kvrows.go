package model

// kvRows is the KV payload a Snapshot and a DecodeState both carry: every
// block's keys and values as lanes — lane 2b·heads+h holds head h of block
// b's keys, lane (2b+1)·heads+h its values — each a run of pitch rows of d
// floats in one buffer, so attention streams one head's keys as one
// contiguous run. Rows [0,shared) are read from base, an immutable kvRows
// that may itself read from a base; buf holds rows [shared,rows), row r of
// lane l at at(l, r). One walker (run), one row copy (copyRows) and one
// compaction (carve) serve every reader: restore, checkpoint, share,
// repitch, attention and the wire encoder.
type kvRows struct {
	buf      []float32
	lanes, d int
	rows     int // rows usable, the shared ones included
	pitch    int // rows each lane of buf holds
	base     *kvRows
	shared   int
}

// at returns the offset in buf of lane l's row r, r ≥ shared.
func (r *kvRows) at(l, row int) int { return (l*r.pitch + row - r.shared) * r.d }

// own returns the rows buf holds: the usable ones less those read from base.
func (r *kvRows) own() int { return r.rows - r.shared }

// run returns the longest contiguous run of lane l's rows [lo,hi), lo < hi ≤
// rows, and the row it ends at: rows below shared come from the base chain.
func (r *kvRows) run(l, lo, hi int) ([]float32, int) {
	for lo < r.shared {
		r, hi = r.base, min(hi, r.shared)
	}
	return r.buf[r.at(l, lo):r.at(l, hi)], hi
}

// copyRows copies lane l's rows [lo,hi) into dst, the base chain's first.
func (r *kvRows) copyRows(dst []float32, l, lo, hi int) {
	for lo < hi {
		run, end := r.run(l, lo, hi)
		dst, lo = dst[copy(dst, run):], end
	}
}

// carve returns r's rows re-laid at pitch rows per lane: rows [from,rows)
// copied into buf — reused when its capacity suffices, else a new buffer —
// and rows [0,from) read from base, which must hold r's bit for bit (dropped
// when from is 0).
func (r *kvRows) carve(buf []float32, pitch, from int, base *kvRows) kvRows {
	n := r.lanes * pitch * r.d
	if cap(buf) < n {
		buf = make([]float32, n)
	}
	if from == 0 {
		base = nil
	}
	out := kvRows{buf: buf[:n], lanes: r.lanes, d: r.d, rows: r.rows, pitch: pitch, base: base, shared: from}
	for l := range r.lanes {
		r.copyRows(out.buf[out.at(l, from):], l, from, r.rows)
	}
	return out
}
