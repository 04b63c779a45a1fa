package protect

import (
	"math"
	"math/rand"
	"testing"

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
				nan = CorrectNaNOnly(part)
			}
			s.Observe(k, tensor.FromSlice(d, cols, part))
			return s, nan
		}

		got, tr, gotNaN := NewStore(), new(Trail), 0
		work := append([]float32(nil), data...)
		for pos := 0; pos < rows; {
			n := 1 + rng.Intn(rows-pos)
			gotNaN += got.ObserveRows(k, tensor.FromSlice(n, cols, work[pos*cols:(pos+n)*cols]), pos, correct, tr)
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
	if at, nan := tr.At(5); at.Len() != 0 || nan != 0 || tr.Prefix(5) != nil || tr.Clone() != nil {
		t.Fatal("nil trail is not empty")
	}
}

// TestTrailCloneSurvivesAppendAndReset: a clone copies nothing, yet neither
// later appends to the source nor a Reset-and-refill of it reach the clone.
func TestTrailCloneSurvivesAppendAndReset(t *testing.T) {
	k := SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.VProj}}
	row := func(v float32) *tensor.Tensor { return tensor.FromSlice(1, 1, []float32{v}) }
	s, tr := NewStore(), new(Trail)
	for i := 0; i < 5; i++ {
		s.ObserveRows(k, row(float32(i)), i, true, tr)
	}
	clone := tr.Clone()
	s.ObserveRows(k, row(50), 5, true, tr) // the source grows past the clone
	tr.Reset()
	for i := 0; i < 6; i++ { // and is refilled from scratch
		s.ObserveRows(k, row(float32(-100*(i+1))), i, true, tr)
	}
	at, _ := clone.At(100)
	if b, _ := at.Get(k); b != (Bounds{0, 4}) {
		t.Fatalf("clone folds to %v after the source moved on, want {0 4}", b)
	}
	grown := clone.Clone()
	NewStore().ObserveRows(k, row(9), 5, true, clone) // appending to a clone reallocates
	if at, _ := grown.At(100); at.m[k] != (Bounds{0, 4}) {
		t.Fatalf("clone of a clone saw its source's append: %v", at.m[k])
	}
}
