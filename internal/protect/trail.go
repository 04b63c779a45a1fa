package protect

import (
	"math"

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
type Trail struct {
	recs []trailRec
	// shared marks the backing array as visible through a Clone: the next
	// Reset starts a new one instead of overwriting records a clone holds.
	shared bool
}

// trailRec is a widening (nan == 0: row's finite range b at site key) or a
// NaN correction (nan > 0 corrected on row; key and b unused).
type trailRec struct {
	row int
	key SiteKey
	b   Bounds
	nan int
}

// Reset empties the trail, keeping its backing array unless a Clone shares it
// — so a controller that is Reset per inference and never captured stops
// touching the allocator.
func (t *Trail) Reset() {
	if t.shared {
		t.recs, t.shared = nil, false
	}
	t.recs = t.recs[:0]
}

// At folds the records of rows [0, d) into a fresh store and NaN count.
func (t *Trail) At(d int) (*Store, int) {
	s, nan := NewStore(), 0
	if t == nil {
		return s, 0
	}
	for _, r := range t.recs {
		if r.row >= d {
			continue
		}
		if r.nan > 0 {
			nan += r.nan
		} else if cur, ok := s.m[r.key]; ok {
			s.m[r.key] = cur.Widen(r.b)
		} else {
			s.m[r.key] = r.b
		}
	}
	return s, nan
}

// Prefix returns an independent trail holding the records of rows [0, d).
func (t *Trail) Prefix(d int) *Trail {
	if t == nil {
		return nil
	}
	out := &Trail{recs: make([]trailRec, 0, len(t.recs))}
	for _, r := range t.recs {
		if r.row < d {
			out.recs = append(out.recs, r)
		}
	}
	return out
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
	return &Trail{recs: t.recs[:len(t.recs):len(t.recs)], shared: true}
}

func (t *Trail) add(r trailRec) {
	if t != nil {
		t.recs = append(t.recs, r)
	}
}

// finiteRange returns the range of row's finite values (ok false when there
// are none). With correctNaN, NaNs are first replaced by 0 in place — counted
// in nan and then observed like any other 0; otherwise they are skipped, as
// ±Inf always is (abnormal values are corrected, not learned). The loop is
// the definition; tensor.RangeScreen first proves the common case — no NaN,
// both extrema finite and neither a zero, whose sign the loop takes from the
// first one seen — in which the loop would return exactly the extrema.
func finiteRange(row []float32, correctNaN bool) (b Bounds, ok bool, nan int) {
	if lo, hi, clean := tensor.RangeScreen(row); clean && lo >= -math.MaxFloat32 && hi <= math.MaxFloat32 && lo != 0 && hi != 0 {
		return Bounds{lo, hi}, true, 0
	}
	for i, v := range row {
		if v != v {
			if !correctNaN {
				continue
			}
			row[i], v = 0, 0
			nan++
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
	cur, have := s.Get(k)
	changed := false
	for r := 0; r < out.Rows; r++ {
		b, ok, n := finiteRange(out.Row(r), correctNaN)
		if n > 0 {
			nan += n
			tr.add(trailRec{row: pos + r, nan: n})
		}
		if !ok || have && b.Lo >= cur.Lo && b.Hi <= cur.Hi {
			continue
		}
		if have {
			cur = cur.Widen(b)
		} else {
			cur, have = b, true
		}
		changed = true
		tr.add(trailRec{row: pos + r, key: k, b: b})
	}
	if changed {
		s.Set(k, cur)
	}
	return nan
}
