package protect

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"ft2/internal/model"
	"ft2/internal/tensor"
)

// TestTrailFoldsToWholeTensorObserve: for random tensors salted with NaN,
// ±Inf and signed zeros, observed row by row in random chunks, (a) the store
// ends bit-identical to NaN-correcting and observing the whole tensor at
// once, and (b) the trail folded at any depth d is bit-identical to doing
// that to the first d rows alone.
func TestTrailFoldsToWholeTensorObserve(t *testing.T) {
	k := SiteKey{Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Site: model.SiteLinearOut}
	salt := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(5)
		data := make([]float32, rows*cols)
		for i := range data {
			data[i] = float32(rng.NormFloat64())
			if rng.Intn(3) == 0 {
				data[i] = salt[rng.Intn(len(salt))]
			}
		}
		correct := trial%2 == 0

		// whole(d) is the parent's two-pass learn step over rows [0, d).
		whole := func(d int) (*Store, int) {
			part := append([]float32(nil), data[:d*cols]...)
			s, nan := NewStore(), 0
			if correct {
				nan = ClampCorrect(part, Bounds{float32(math.Inf(-1)), float32(math.Inf(1))}, ClipToBound, true).NaN
			}
			s.Observe(k, tensor.FromSlice(d, cols, part))
			return s, nan
		}

		got, tr, gotNaN := NewStore(), new(Trail), 0
		work := append([]float32(nil), data...)
		for pos := 0; pos < rows; {
			n := 1 + rng.Intn(rows-pos)
			if nan := got.ObserveRows(k, tensor.FromSlice(n, cols, work[pos*cols:(pos+n)*cols]), pos, correct, tr); correct {
				gotNaN += nan // uncorrected NaNs are seen, not counted in the trail
			}
			pos += n
		}
		for d := 0; d <= rows; d++ {
			want, wantNaN := whole(d)
			at, atNaN := tr.At(d)
			if !sameBits(at, want) || atNaN != wantNaN {
				t.Fatalf("trial %d: At(%d) = %d NaN %v, want %d NaN %v", trial, d, atNaN, at, wantNaN, want)
			}
			if pre, preNaN := tr.Prefix(d).At(rows); !sameBits(pre, want) || preNaN != wantNaN {
				t.Fatalf("trial %d: Prefix(%d) folds to %d NaN %v, want %d NaN %v", trial, d, preNaN, pre, wantNaN, want)
			}
		}
		if want, wantNaN := whole(rows); !sameBits(got, want) || gotNaN != wantNaN {
			t.Fatalf("trial %d: row-wise store %d NaN %v, want %d NaN %v", trial, gotNaN, got, wantNaN, want)
		}
	}
}

func sameBits(a, b *Store) bool {
	ea, eb := a.SortedEntries(), b.SortedEntries()
	if len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i].Key != eb[i].Key || !sameBounds(ea[i].Bounds, eb[i].Bounds) {
			return false
		}
	}
	return true
}

// TestNilTrail: a nil trail records nothing and folds to an empty profile.
func TestNilTrail(t *testing.T) {
	var tr *Trail
	k := SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.VProj}}
	s := NewStore()
	if n := s.ObserveRows(k, tensor.FromSlice(2, 1, []float32{float32(math.NaN()), 2}), 0, true, tr); n != 1 {
		t.Fatalf("corrected %d NaNs, want 1", n)
	}
	if b, _ := s.Get(k); b != (Bounds{0, 2}) {
		t.Fatalf("bounds = %v", b)
	}
	if at, nan := tr.At(5); at.Len() != 0 || nan != 0 || tr.Prefix(5) != nil {
		t.Fatal("nil trail is not empty")
	}
}

// FuzzObserveBareMatchesProtected: the learn pass without NaN correction over
// a tensor decoded from the input (first byte: columns; second: how rows are
// split into chunks; then little-endian float32s) never writes a value and
// returns every NaN it saw. On NaN-free rows it leaves the store and the trail
// bit-identical to ObserveRows(correctNaN=true) over the same rows in one piece
// — so an unprotected prefill that saw no NaN offers the trail a protected one
// would.
func FuzzObserveBareMatchesProtected(f *testing.F) {
	nan, inf := math.Float32bits(float32(math.NaN())), math.Float32bits(float32(math.Inf(1)))
	for _, seed := range [][]uint32{
		{0x3f800000, 0xbf800000, 0x40000000, 0x80000000, 0, 0x3e800000},
		{0x3f800000, inf, 0xc0400000, 0x7f7fffff, 0xff7fffff, 1},
		{0x3f800000, nan, 0x40000000, 0x80000000, 0xbf000000, nan},
	} {
		for _, cols := range []byte{1, 2, 3} {
			b := []byte{cols, byte(len(seed))}
			for _, v := range seed {
				b = binary.LittleEndian.AppendUint32(b, v)
			}
			f.Add(b)
		}
	}
	k := SiteKey{Layer: model.LayerRef{Block: 2, Kind: model.DownProj}, Site: model.SiteLinearOut}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		cols := 1 + int(b[0])%8
		rng := rand.New(rand.NewSource(int64(b[1])))
		vals := make([]float32, (len(b)-2)/4/cols*cols)
		wantSeen := 0
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[2+4*i:]))
			if vals[i] != vals[i] {
				wantSeen++
			}
		}
		rows := len(vals) / cols

		work := append([]float32(nil), vals...)
		got, gotTr, seen := NewStore(), new(Trail), 0
		for pos := 0; pos < rows; {
			n := 1 + rng.Intn(rows-pos)
			seen += got.ObserveRows(k, tensor.FromSlice(n, cols, work[pos*cols:(pos+n)*cols]), pos, false, gotTr)
			pos += n
		}
		if seen != wantSeen || !sameRow(work, vals) {
			t.Fatalf("observe-only saw %d NaNs of %d, or wrote a value: %v -> %v", seen, wantSeen, vals, work)
		}
		if wantSeen > 0 {
			return
		}

		want, wantTr := NewStore(), new(Trail)
		if n := want.ObserveRows(k, tensor.FromSlice(rows, cols, append([]float32(nil), vals...)), 0, true, wantTr); n != 0 {
			t.Fatalf("ObserveRows corrected %d NaNs in NaN-free rows", n)
		}
		if !sameBits(got, want) || len(gotTr.recs) != len(wantTr.recs) {
			t.Fatalf("observe-only store %v (%d records), protected %v (%d records)", got, len(gotTr.recs), want, len(wantTr.recs))
		}
		for i, r := range gotTr.recs {
			if w := wantTr.recs[i]; r.row != w.row || r.slot != w.slot || r.nan != w.nan || !sameBounds(r.b, w.b) {
				t.Fatalf("trail record %d: observe-only %+v, protected %+v", i, r, w)
			}
		}
	})
}

// TestTrailRecordSize: a record is a row, a store slot, its bounds and a NaN
// count — at most 24 bytes — and the slot maps back to the site.
func TestTrailRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(trailRec{}); n > 24 {
		t.Fatalf("trailRec is %d bytes, want ≤ 24", n)
	}
	k := SiteKey{Layer: model.LayerRef{Block: 0xffff, Kind: model.LayerKind(model.NumLayerKinds - 1)}, Site: model.SiteActivationOut}
	if got := keyOf(slotOf(k)); got != k {
		t.Fatalf("site %+v maps back to %+v", k, got)
	}
}

// FuzzTrailShare: a trail observed from rows decoded from the input (first
// byte: rows; second: columns; third: how many Shares to chain, 1-3, then one
// depth byte each; then one byte per value — 0x80 a NaN, 0x7f +Inf, anything
// else a small float — whose low bit, on a row's first value, picks one of
// two sites) folds at every depth exactly as the same records chained through
// Shares at the decoded depths, as a Prefix view of the chain, and as a Prefix
// view extended by observing the rows past its depth — the way a session
// resumes a cached prompt. A Prefix view holds no records, and a Share holds
// only those of the rows past its depth.
func FuzzTrailShare(f *testing.F) {
	f.Add([]byte{6, 2, 1, 3, 1, 2, 3, 0x80, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{9, 1, 3, 2, 5, 7, 0x10, 0x81, 0x80, 0x20, 0xf0, 0x7f, 0, 3, 0x40})
	f.Add([]byte{12, 3, 2, 12, 0, 1, 0xfe, 0x80, 0x80, 0x80, 2, 4, 6, 8, 0x81, 0x7f})
	keys := [2]SiteKey{
		{Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Site: model.SiteLinearOut},
		{Layer: model.LayerRef{Block: 3, Kind: model.GateProj}, Site: model.SiteActivationOut},
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		rows, cols, links := 1+int(b[0])%16, 1+int(b[1])%3, 1+int(b[2])%3
		if len(b) < 3+links+1 {
			return
		}
		depths := make([]int, links)
		for i := range depths {
			depths[i] = int(b[3+i]) % (rows + 1)
		}
		data := b[3+links:]
		vals := make([]float32, rows*cols)
		for i := range vals {
			switch v := data[i%len(data)]; v {
			case 0x80:
				vals[i] = float32(math.NaN())
			case 0x7f:
				vals[i] = float32(math.Inf(1))
			default:
				vals[i] = float32(int8(v)) / 16
			}
		}
		// observe records rows [from, rows) into tr, resuming store s.
		observe := func(s *Store, tr *Trail, from int) {
			for r := from; r < rows; r++ {
				row := append([]float32(nil), vals[r*cols:(r+1)*cols]...)
				s.ObserveRows(keys[data[r*cols%len(data)]&1], tensor.FromSlice(1, cols, row), r, true, tr)
			}
		}
		flat := new(Trail)
		observe(NewStore(), flat, 0)
		same := func(what string, tr *Trail, depth func(int) int) {
			t.Helper()
			for d := 0; d <= rows+1; d++ {
				got, gotNaN := tr.At(d)
				want, wantNaN := flat.At(depth(d))
				if !sameBits(got, want) || gotNaN != wantNaN {
					t.Fatalf("%s: At(%d) = %d NaN %v, flat trail folds to %d NaN %v", what, d, gotNaN, got, wantNaN, want)
				}
			}
		}
		whole := func(d int) int { return d }

		chain := flat.Share(nil, 0)
		same("compact copy", chain, whole)
		for _, k := range depths {
			chain = flat.Share(chain, k)
			same(fmt.Sprintf("Share at %d", k), chain, whole)
			own := 0
			flat.each(math.MaxInt, func(r trailRec) {
				if int(r.row) >= k {
					own++
				}
			})
			if want := own * int(unsafe.Sizeof(trailRec{})); chain.MemoryBytes() != want {
				t.Fatalf("Share at %d holds %d bytes of records, want the %d rows past it: %d", k, chain.MemoryBytes(), own, want)
			}
		}
		for k := 0; k <= rows; k++ {
			view := chain.Prefix(k)
			if cap(view.recs) != 0 {
				t.Fatalf("Prefix(%d) holds %d records", k, cap(view.recs))
			}
			same(fmt.Sprintf("Prefix(%d)", k), view, func(d int) int { return min(d, k) })
			s, _ := view.At(k)
			observe(s, view, k)
			same(fmt.Sprintf("Prefix(%d) extended", k), view, whole)
		}
	})
}
