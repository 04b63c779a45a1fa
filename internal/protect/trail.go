package protect

import (
	"math"
	"unsafe"

	"ft2/internal/tensor"
)

// Trail is the append-only record of how a prefill's first-token bounds came
// to be, row by row: one record each time a prompt row widened a site's
// envelope (that row's own finite range) and one per row whose NaNs were
// corrected. Min/max observation is associative over row partitions and NaN
// counts are additive, so folding the records below any depth d reproduces
// exactly the store and count a cold prefill of rows [0, d) ends with — which
// is what lets a protected session resume a cached prefix at any row. A row
// is recorded only when it widens, so a site contributes about 2·ln(rows)
// records. A nil *Trail records nothing and folds to nothing.
//
// A trail may read its first rows from another: the records of rows
// [0, from) are base's, and recs holds only those of rows ≥ from — how a
// cached prompt holds only the records no prompt it extends already holds.
// A base is never written through the trails that read it, and must stay
// immutable while they live, as prefix-cache trails are.
type Trail struct {
	base *Trail
	from int
	recs []trailRec
	// shared marks the backing array as visible through a Clone: the next
	// Reset starts a new one instead of overwriting records a clone holds.
	shared bool
}

// trailRec is a widening (nan == 0: row's finite range b at the store slot)
// or a NaN correction (nan > 0 corrected on row; slot and b unused).
type trailRec struct {
	row  int32
	slot int32
	b    Bounds
	nan  int32
}

// Reset empties the trail, keeping its backing array unless a Clone shares it
// — so a controller that is Reset per inference and never captured stops
// touching the allocator.
func (t *Trail) Reset() {
	if t.shared {
		t.recs, t.shared = nil, false
	}
	t.base, t.from, t.recs = nil, 0, t.recs[:0]
}

// At folds the records of rows [0, d) into a fresh store and NaN count.
func (t *Trail) At(d int) (*Store, int) {
	s, nan := NewStore(), 0
	t.each(d, func(r trailRec) {
		if r.nan > 0 {
			nan += int(r.nan)
			return
		}
		s.widen(int(r.slot), r.b)
	})
	return s, nan
}

// each visits the records of rows [0, d) in the order they were recorded:
// the base's, then the trail's own.
func (t *Trail) each(d int, fn func(trailRec)) {
	if t == nil {
		return
	}
	if t.base != nil {
		t.base.each(min(d, t.from), fn)
	}
	for _, r := range t.recs {
		if int(r.row) < d {
			fn(r)
		}
	}
}

// Prefix returns a read-only view of the records of rows [0, d) that copies
// none: it reads them from t — or from the deepest trail t reads that holds
// them all — which must stay immutable while the view lives. Records appended
// to the view are its own.
func (t *Trail) Prefix(d int) *Trail {
	for t != nil && t.base != nil && d <= t.from {
		t = t.base
	}
	if t == nil {
		return nil
	}
	return &Trail{base: t, from: d}
}

// Share returns a trail that reads the records of rows [0, k) from base and
// holds t's records of the rows past them, in an array of exactly their size;
// Share(nil, 0) is a compact copy of t. base must record t's rows [0, k)
// exactly — as trails of the same token prefix's bare rows do — and stay
// immutable while the result lives. t is not modified.
func (t *Trail) Share(base *Trail, k int) *Trail {
	if t == nil {
		return nil
	}
	for base != nil && base.base != nil && k <= base.from {
		base = base.base
	}
	n := 0
	t.each(math.MaxInt, func(r trailRec) {
		if int(r.row) >= k {
			n++
		}
	})
	out := &Trail{recs: make([]trailRec, 0, n)}
	if base != nil {
		out.base, out.from = base, k
	}
	t.each(math.MaxInt, func(r trailRec) {
		if int(r.row) >= k {
			out.recs = append(out.recs, r)
		}
	})
	return out
}

// MemoryBytes returns the bytes of the records the trail holds itself, not
// counting those it reads from its base.
func (t *Trail) MemoryBytes() int {
	if t == nil {
		return 0
	}
	return cap(t.recs) * int(unsafe.Sizeof(trailRec{}))
}

// Clone returns an independent trail of the records so far without copying
// them: records never change once appended, and the clone's capacity ends at
// its length, so an append to either trail leaves the other's view intact.
func (t *Trail) Clone() *Trail {
	if t == nil {
		return nil
	}
	if !t.shared { // written once, by the appending owner; clones of clones only read it
		t.shared = true
	}
	return &Trail{base: t.base, from: t.from, recs: t.recs[:len(t.recs):len(t.recs)], shared: true}
}

func (t *Trail) add(r trailRec) {
	if t != nil {
		t.recs = append(t.recs, r)
	}
}

// finiteRange returns the range of row's finite values (ok false when there
// are none) and the number of NaNs in it. With correctNaN, NaNs are first
// replaced by 0 in place and then observed like any other 0; otherwise they
// are skipped, as ±Inf always is (abnormal values are corrected, not learned).
// The loop is the definition; tensor.RangeScreen first proves the common case
// — no NaN, both extrema finite and neither a zero, whose sign the loop takes
// from the first one seen — in which the loop would return exactly the
// extrema.
func finiteRange(row []float32, correctNaN bool) (b Bounds, ok bool, nan int) {
	if lo, hi, clean := tensor.RangeScreen(row); clean && lo >= -math.MaxFloat32 && hi <= math.MaxFloat32 && lo != 0 && hi != 0 {
		return Bounds{lo, hi}, true, 0
	}
	for i, v := range row {
		if v != v {
			nan++
			if !correctNaN {
				continue
			}
			row[i], v = 0, 0
		} else if v > math.MaxFloat32 || v < -math.MaxFloat32 {
			continue
		}
		switch {
		case !ok:
			b, ok = Bounds{v, v}, true
		case v < b.Lo:
			b.Lo = v
		case v > b.Hi:
			b.Hi = v
		}
	}
	return b, ok, nan
}

// ObserveRows is the first-token learn pass over one hook tensor whose first
// row is prompt row pos: each row is NaN-corrected (when correctNaN) and
// observed in one sweep, the site's bounds widen to cover it, and every row
// that widened them — or had NaNs corrected — is appended to tr. It returns
// the number of NaNs corrected. The result is the bounds a single Observe of
// the whole tensor leaves, bit for bit.
func (s *Store) ObserveRows(k SiteKey, out *tensor.Tensor, pos int, correctNaN bool, tr *Trail) (nan int) {
	if nan = s.observeRows(k, out, pos, correctNaN, tr); !correctNaN {
		return 0 // skipped, not corrected
	}
	return nan
}

// ObserveRowsOnly is the learn pass that changes nothing: ObserveRows without
// the correction, returning the NaNs it saw and skipped. On NaN-free rows it
// leaves the store and tr exactly as ObserveRows(correctNaN=true) does, so an
// unprotected prefill that saw no NaN records the trail a protected prefill of
// the same rows would have.
func (s *Store) ObserveRowsOnly(k SiteKey, out *tensor.Tensor, pos int, tr *Trail) (seen int) {
	return s.observeRows(k, out, pos, false, tr)
}

// observeRows is both learn passes: it returns the NaNs in out, and records
// one trail entry per row whose NaNs it corrected.
func (s *Store) observeRows(k SiteKey, out *tensor.Tensor, pos int, correctNaN bool, tr *Trail) (nan int) {
	i := slotOf(k)
	cur, have := s.get(i)
	changed := false
	for r := 0; r < out.Rows; r++ {
		b, ok, n := finiteRange(out.Row(r), correctNaN)
		if n > 0 && correctNaN {
			tr.add(trailRec{row: int32(pos + r), nan: int32(n)})
		}
		nan += n
		if !ok || have && b.Lo >= cur.Lo && b.Hi <= cur.Hi {
			continue
		}
		if have {
			cur = cur.Widen(b)
		} else {
			cur, have = b, true
		}
		changed = true
		tr.add(trailRec{row: int32(pos + r), slot: int32(i), b: b})
	}
	if changed {
		s.set(i, cur)
	}
	return nan
}
