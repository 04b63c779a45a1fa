package protect

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ft2/internal/model"
	"ft2/internal/tensor"
)

// The three references below are the scalar sweeps as they stood before
// tensor.RangeScreen went in front of them, kept so the screened functions
// can be held to them bit for bit.

func clampCorrectRef(data []float32, b Bounds, mode ClipMode, correctNaN bool) CorrectionStats {
	var st CorrectionStats
	for i, v := range data {
		if math.IsNaN(float64(v)) {
			if correctNaN {
				data[i] = 0
				st.NaN++
			}
			continue
		}
		if v < b.Lo {
			if mode == ClipToBound {
				data[i] = b.Lo
			} else {
				data[i] = 0
			}
			st.OutOfBound++
		} else if v > b.Hi {
			if mode == ClipToBound {
				data[i] = b.Hi
			} else {
				data[i] = 0
			}
			st.OutOfBound++
		}
	}
	return st
}

func correctNaNOnlyRef(data []float32) int {
	n := 0
	for i, v := range data {
		if math.IsNaN(float64(v)) {
			data[i] = 0
			n++
		}
	}
	return n
}

func finiteRangeRef(row []float32, correctNaN bool) (b Bounds, ok bool, nan int) {
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

func sameRow(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func sameBounds(a, b Bounds) bool {
	return math.Float32bits(a.Lo) == math.Float32bits(b.Lo) && math.Float32bits(a.Hi) == math.Float32bits(b.Hi)
}

// TestScreenedSweepsMatchScalar: over random rows — two in three salted with
// NaN, ±Inf, signed zeros, denormals and ±MaxFloat32, one in three one-signed
// so a zero can be the extremum — ClampCorrect (both modes, both correctNaN
// values, bounds wide, exactly on the row's extrema, one ulp inside them, at
// ±0 and infinite), CorrectNaNOnly and finiteRange leave the same row bits
// and return the same counts and Bounds bits as the scalar references.
func TestScreenedSweepsMatchScalar(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	salt := []float32{float32(math.NaN()), inf, -inf, 0, negZero,
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32}
	rng := rand.New(rand.NewSource(20))
	widths := []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64, 67, 96, 264}
	for trial := 0; trial < 3000; trial++ {
		row := make([]float32, widths[rng.Intn(len(widths))])
		sign := rng.Intn(3) // 0 mixed, 1 non-negative, 2 non-positive
		for i := range row {
			v := float32(rng.NormFloat64())
			switch sign {
			case 1:
				v = float32(math.Abs(float64(v)))
			case 2:
				v = -float32(math.Abs(float64(v)))
			}
			row[i] = v
		}
		if trial%3 != 0 {
			for n := rng.Intn(4); n > 0 && len(row) > 0; n-- {
				row[rng.Intn(len(row))] = salt[rng.Intn(len(salt))]
			}
		}

		for _, correctNaN := range []bool{false, true} {
			got, want := append([]float32(nil), row...), append([]float32(nil), row...)
			gb, gok, gn := finiteRange(got, correctNaN)
			wb, wok, wn := finiteRangeRef(want, correctNaN)
			if !sameBounds(gb, wb) || gok != wok || gn != wn || !sameRow(got, want) {
				t.Fatalf("trial %d finiteRange(correctNaN=%v) of %v: got %v %v %d, want %v %v %d", trial, correctNaN, row, gb, gok, gn, wb, wok, wn)
			}
		}

		got, want := append([]float32(nil), row...), append([]float32(nil), row...)
		if g, w := CorrectNaNOnly(got), correctNaNOnlyRef(want); g != w || !sameRow(got, want) {
			t.Fatalf("trial %d CorrectNaNOnly of %v: got %d, want %d", trial, row, g, w)
		}

		ext, _, _ := finiteRangeRef(append([]float32(nil), row...), false)
		bounds := []Bounds{
			ext,
			{math.Nextafter32(ext.Lo, inf), math.Nextafter32(ext.Hi, -inf)},
			{ext.Lo * 2, ext.Hi * 2},
			{-100, 100},
			{0, ext.Hi}, {negZero, ext.Hi}, {ext.Lo, 0}, {ext.Lo, negZero},
			{-inf, inf}, {-math.MaxFloat32, math.MaxFloat32},
		}
		for _, b := range bounds {
			for _, mode := range []ClipMode{ClipToBound, ClipToZero} {
				for _, correctNaN := range []bool{false, true} {
					got, want := append([]float32(nil), row...), append([]float32(nil), row...)
					g, w := ClampCorrect(got, b, mode, correctNaN), clampCorrectRef(want, b, mode, correctNaN)
					if g != w || !sameRow(got, want) {
						t.Fatalf("trial %d ClampCorrect(%v, %v, correctNaN=%v) of %v: got %+v %v, want %+v %v", trial, b, mode, correctNaN, row, g, got, w, want)
					}
				}
			}
		}
	}
}

// benchRow returns a w-wide row of activations inside (-4, 4).
func benchRow(w int) []float32 {
	rng := rand.New(rand.NewSource(int64(w)))
	row := make([]float32, w)
	for i := range row {
		row[i] = float32(rng.Float64()*7.8 - 3.9)
		if row[i] == 0 {
			row[i] = 1
		}
	}
	return row
}

// reportPerElement adds ns/elem and the computed GB/s (4 bytes read per
// element; a clean row is never written) to a benchmark that swept elems
// elements per iteration.
func reportPerElement(b *testing.B, elems int) {
	ns := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(elems)
	b.ReportMetric(ns, "ns/elem")
	b.ReportMetric(4/ns, "GB/s")
}

// BenchmarkClampCorrect: the following-token sweep at the llama-sim row
// widths and one long row, on a clean row (the screen's early return) and on
// a row whose one out-of-bound value, re-planted each iteration, sends it
// through the screen and then the scalar loop.
func BenchmarkClampCorrect(b *testing.B) {
	for _, w := range []int{96, 264, 4096} {
		for _, violate := range []bool{false, true} {
			b.Run(fmt.Sprintf("w%d/violation=%v", w, violate), func(b *testing.B) {
				row := benchRow(w)
				bounds := Bounds{-4, 4}
				for i := 0; i < b.N; i++ {
					if violate {
						row[w/2] = 1e9
					}
					ClampCorrect(row, bounds, ClipToBound, true)
				}
				reportPerElement(b, w)
			})
		}
	}
}

// BenchmarkObserveRows: the first-token sweep over a 16-row tensor at the
// same widths, clean and with one +Inf per row (skipped, never corrected, so
// every row takes the scalar loop every iteration).
func BenchmarkObserveRows(b *testing.B) {
	k := SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.VProj}, Site: model.SiteLinearOut}
	const rows = 16
	for _, w := range []int{96, 264, 4096} {
		for _, violate := range []bool{false, true} {
			b.Run(fmt.Sprintf("w%d/violation=%v", w, violate), func(b *testing.B) {
				data := make([]float32, 0, rows*w)
				for r := 0; r < rows; r++ {
					data = append(data, benchRow(w)...)
					if violate {
						data[r*w+w/2] = float32(math.Inf(1))
					}
				}
				out := tensor.FromSlice(rows, w, data)
				s, tr := NewStore(), new(Trail)
				for i := 0; i < b.N; i++ {
					s.ObserveRows(k, out, 0, true, tr)
				}
				reportPerElement(b, rows*w)
			})
		}
	}
}
