package protect

import (
	"bytes"
	"cmp"
	"maps"
	"math"
	"slices"
	"testing"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// storeOracle is what a store and a trail should hold, kept in a map and a
// row list: a Store's slots and a Trail's widening-only records must agree
// with it after any sequence of operations.
type storeOracle struct {
	m map[SiteKey]Bounds
	// rows is one entry per row an ObserveRows since the last Reset saw:
	// its site, its finite range (ok false: none) and its corrected NaNs.
	rows []oracleRow
}

func newOracle() storeOracle { return storeOracle{m: map[SiteKey]Bounds{}} }

type oracleRow struct {
	row int
	key SiteKey
	b   Bounds
	ok  bool
	nan int
}

func (o *storeOracle) widen(k SiteKey, b Bounds) {
	if cur, ok := o.m[k]; ok {
		b = cur.Widen(b)
	}
	o.m[k] = b
}

// at folds the rows below d, as Trail.At(d) does.
func (o *storeOracle) at(d int) (map[SiteKey]Bounds, int) {
	m, nan := map[SiteKey]Bounds{}, 0
	for _, r := range o.rows {
		if r.row >= d {
			continue
		}
		nan += r.nan
		if r.ok {
			if cur, ok := m[r.key]; ok {
				r.b = cur.Widen(r.b)
			}
			m[r.key] = r.b
		}
	}
	return m, nan
}

// rowRange is the definition of a row's learned range: the extrema of its
// finite values, a NaN counting as 0 when corrected and skipped otherwise.
func rowRange(row []float32, correctNaN bool) (b Bounds, ok bool, nan int) {
	for _, v := range row {
		if v != v {
			nan++
			if !correctNaN {
				continue
			}
			v = 0
		} else if math.IsInf(float64(v), 0) {
			continue
		}
		if !ok {
			b, ok = Bounds{v, v}, true
		}
		b.Lo, b.Hi = min(b.Lo, v), max(b.Hi, v)
	}
	return b, ok, nan
}

// matches reports whether s agrees with the oracle map m through every read
// a store offers: Get on each site of the fuzzed universe and one past
// it, Len, SortedEntries and MemoryBytes.
func matches(s *Store, m map[SiteKey]Bounds) bool {
	for block := 0; block <= fuzzBlocks; block++ {
		for k := 0; k < model.NumLayerKinds; k++ {
			for site := model.SiteLinearOut; site <= model.SiteActivationOut; site++ {
				key := SiteKey{Layer: model.LayerRef{Block: block, Kind: model.LayerKind(k)}, Site: site}
				got, ok := s.Get(key)
				want, wantOK := m[key]
				if ok != wantOK || ok && !sameBounds(got, want) {
					return false
				}
			}
		}
	}
	keys := make([]SiteKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b SiteKey) int {
		return cmp.Or(cmp.Compare(a.Layer.Block, b.Layer.Block), cmp.Compare(a.Layer.Kind, b.Layer.Kind), cmp.Compare(a.Site, b.Site))
	})
	es := s.SortedEntries()
	if s.Len() != len(m) || len(es) != len(m) ||
		s.MemoryBytes(numerics.FP16) != 4*len(m) || s.MemoryBytes(numerics.FP32) != 8*len(m) {
		return false
	}
	for i, e := range es {
		if e.Key != keys[i] || !sameBounds(e.Bounds, m[e.Key]) {
			return false
		}
	}
	return true
}

// allValid reports whether every bound s holds is Valid.
func allValid(s *Store) bool {
	for _, e := range s.SortedEntries() {
		if !e.Bounds.Valid() {
			return false
		}
	}
	return true
}

const fuzzBlocks = 4

// FuzzBoundsStore runs the operation sequence decoded from the input — Set,
// Observe, ObserveRows, Reset and Clone, one op byte each followed by its
// operands — against a map oracle, checking every read after every op, and at
// the end that Save writes what a store Set from the oracle writes and that
// each Clone still holds what it was cloned with. The ObserveRows calls also
// go to a second store that sees nothing else, with a trail — a trail records
// only the rows that widen its own store — whose fold at a decoded depth is
// checked after each, as is that all it learned is a Valid bound.
func FuzzBoundsStore(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 10, 20})
	f.Add([]byte{2, 3, 8, 1, 0x13, 2, 2, 0x80, 5, 0x7f, 0xf0, 9, 1, 0, 6, 1, 4, 0x81, 0x22})
	f.Add([]byte{0, 0, 0, 0, 1, 2, 4, 2, 5, 1, 1, 2, 3, 4, 0, 3, 0, 0, 9, 9, 2, 1, 2, 1, 1, 0x80, 0x80, 3})
	f.Add([]byte{2, 7, 1, 1, 0x21, 0x80, 0x81, 0x7f, 2, 6, 3, 0, 0x22, 9, 0x80, 0x10, 0xee, 0x05, 0x40, 7, 4, 2, 0, 5, 0, 1, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// Never ±0: a zero's sign is the first one seen, which the oracle
		// does not model; a corrected NaN is the only zero.
		val := func() float32 {
			switch b := next(); b {
			case 0x80:
				return float32(math.NaN())
			case 0x7f:
				return float32(math.Inf(1))
			case 0x81:
				return float32(math.Inf(-1))
			default:
				return float32(int8(b)) + 0.5
			}
		}
		key := func() SiteKey {
			b := next()
			return SiteKey{
				Layer: model.LayerRef{Block: int(b) % fuzzBlocks, Kind: model.LayerKind(int(b/fuzzBlocks) % model.NumLayerKinds)},
				Site:  model.Site(b >> 7),
			}
		}
		s, o := NewStore(), newOracle()
		ts, tr, to := NewStore(), new(Trail), newOracle()
		type cloned struct {
			s *Store
			m map[SiteKey]Bounds
		}
		var clones []cloned
		pos := 0
		for ops := 0; len(data) > 0 && ops < 64; ops++ {
			switch next() % 5 {
			case 0: // Set
				k, lo, hi := key(), val(), val()
				s.Set(k, Bounds{lo, hi})
				o.m[k] = Bounds{lo, hi}
			case 1: // Observe
				k, n := key(), 1+int(next())%6
				row := make([]float32, n)
				for i := range row {
					row[i] = val()
				}
				s.Observe(k, tensor.FromSlice(1, n, row))
				if b, ok, _ := rowRange(row, false); ok {
					o.widen(k, b)
				}
			case 2: // ObserveRows
				k, shape := key(), next()
				rows, cols, correctNaN := 1+int(shape)%3, 1+int(shape>>2)%4, shape&0x80 != 0
				vals := make([]float32, rows*cols)
				for i := range vals {
					vals[i] = val()
				}
				want := 0
				for r := 0; r < rows; r++ {
					b, ok, nan := rowRange(vals[r*cols:(r+1)*cols], correctNaN)
					if ok {
						o.widen(k, b)
						to.widen(k, b)
					}
					want += nan // seen, and corrected only when correctNaN
					if !correctNaN {
						nan = 0 // no trail record for a NaN left in place
					}
					to.rows = append(to.rows, oracleRow{pos + r, k, b, ok, nan})
				}
				got := s.ObserveRows(k, tensor.FromSlice(rows, cols, slices.Clone(vals)), pos, correctNaN, nil)
				gotT := ts.ObserveRows(k, tensor.FromSlice(rows, cols, slices.Clone(vals)), pos, correctNaN, tr)
				if got != want || gotT != want {
					t.Fatalf("ObserveRows saw %d and %d NaNs, want %d", got, gotT, want)
				}
				pos += rows
				d := int(next()) % (pos + 2)
				at, atNaN := tr.At(d)
				wantAt, wantNaN := to.at(d)
				if atNaN != wantNaN || !matches(at, wantAt) || !matches(ts, to.m) {
					t.Fatalf("trail At(%d) = %d NaN %v, want %d NaN %v; its store %v, want %v", d, atNaN, at, wantNaN, wantAt, ts, to.m)
				}
				// What ObserveRows learns is a valid bound, however wild the row.
				if !allValid(ts) || !allValid(at) {
					t.Fatalf("learned an invalid bound: store %v, trail At(%d) %v", ts, d, at)
				}
			case 3: // Reset
				s.Reset()
				ts.Reset()
				tr = new(Trail)
				o, to, pos = newOracle(), newOracle(), 0
			case 4: // Clone
				clones = append(clones, cloned{s.Clone(), maps.Clone(o.m)})
			}
			if !matches(s, o.m) {
				t.Fatalf("store %v disagrees with oracle %v", s, o.m)
			}
		}
		for i, c := range clones {
			if !matches(c.s, c.m) {
				t.Fatalf("clone %d %v no longer holds %v", i, c.s, c.m)
			}
		}
		// Save reads the contents alone: a store Set from the oracle, in map
		// order, saves the same bytes — or fails too, on bounds JSON cannot
		// carry (±Inf, NaN).
		rev := NewStore()
		for k, b := range o.m {
			rev.Set(k, b)
		}
		var a, b bytes.Buffer
		errA, errB := s.Save(&a), rev.Save(&b)
		if (errA == nil) != (errB == nil) || !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Save of the store (%v):\n%s\nSave of the oracle (%v):\n%s", errA, a.Bytes(), errB, b.Bytes())
		}
	})
}
