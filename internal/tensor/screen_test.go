package tensor

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// screenSpecials are the values the range screen must not mishandle: NaNs of
// either sign and a signalling payload, both infinities, both zeros, the
// smallest denormals and ±MaxFloat32.
var screenSpecials = []uint32{
	0x7fc00000, 0xffc00000, 0x7f800001, // NaN, -NaN, sNaN
	0x7f800000, 0xff800000, // ±Inf
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, // ±min denormal
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
}

// forEachScreenRow calls fn with rows of every length 0–67 — every main-loop,
// 4-lane and scalar-tail shape of rangeScreenVec — first clean (non-zero
// normals), then with each special planted at each position, or with ends
// only at the first and last (across the lengths the last position still
// visits every lane and tail slot).
func forEachScreenRow(ends bool, fn func(row []float32)) {
	r := rand.New(rand.NewSource(20))
	for n := 0; n <= 67; n++ {
		row := make([]float32, n)
		for i := range row {
			row[i] = float32(r.NormFloat64()) + 3*float32(1-2*r.Intn(2))
		}
		fn(row)
		for i := range row {
			if ends && i != 0 && i != n-1 {
				continue
			}
			keep := row[i]
			for _, s := range screenSpecials {
				row[i] = math.Float32frombits(s)
				fn(row)
			}
			row[i] = keep
		}
	}
}

// hostScreens is whether this build has the screen kernel at all
// (dot_generic.go reports "no screen" for every row).
var hostScreens = func() bool { _, _, ok := RangeScreen([]float32{1}); return ok }()

// checkScreen holds RangeScreen to the scalar definition: ok exactly when the
// host screens and the row is non-empty and NaN-free, and then lo/hi are the
// row's extrema — the same bits unless the extremum is a zero, whose sign is
// not promised.
func checkScreen(t *testing.T, row []float32) {
	t.Helper()
	nan := false
	wantLo, wantHi := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range row {
		if v != v {
			nan = true
		}
		wantLo, wantHi = min(wantLo, v), max(wantHi, v) // builtin min/max propagate NaN; unused then
	}
	lo, hi, ok := RangeScreen(row)
	if want := hostScreens && len(row) > 0 && !nan; ok != want {
		t.Fatalf("len %d: ok=%v want %v (row %v)", len(row), ok, want, row)
	}
	if !ok {
		return
	}
	same := func(got, want float32) bool {
		return got == want && (want == 0 || math.Float32bits(got) == math.Float32bits(want))
	}
	if !same(lo, wantLo) || !same(hi, wantHi) {
		t.Fatalf("len %d: got [%x, %x] want [%x, %x] (row %v)", len(row),
			math.Float32bits(lo), math.Float32bits(hi), math.Float32bits(wantLo), math.Float32bits(wantHi), row)
	}
}

// TestRangeScreenMatchesScalar runs the planted rows at every 4-byte
// misalignment of the row's base against the 16-byte vector width (the fuzz
// target below only ever sees freshly allocated rows).
func TestRangeScreenMatchesScalar(t *testing.T) {
	buf := make([]float32, 67+3)
	forEachScreenRow(false, func(row []float32) {
		for off := 0; off < 4; off++ {
			view := buf[off : off+len(row)]
			copy(view, row)
			checkScreen(t, view)
		}
	})
	// Mixed specials: NaNs that MINPS/MAXPS would wash out of the extrema
	// must still be reported, wherever they sit relative to ±Inf and zeros.
	r := rand.New(rand.NewSource(21))
	for n := 1; n <= 67; n++ {
		row := make([]float32, n)
		for rep := 0; rep < 20; rep++ {
			fillPattern(r, row)
			checkScreen(t, row)
		}
	}
}

// fuzzRows fuzzes check over rows decoded from the input as little-endian
// float32s; the rows with specials planted at their ends are the seed corpus
// (the every-position sweep would leave a 10 s fuzz run no time to mutate), so
// plain `go test` runs them too.
func fuzzRows(f *testing.F, check func(t *testing.T, row []float32)) {
	forEachScreenRow(true, func(row []float32) {
		b := make([]byte, 0, 4*len(row))
		for _, v := range row {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		f.Add(b)
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		row := make([]float32, len(b)/4)
		for i := range row {
			row[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
		}
		check(t, row)
	})
}

func FuzzRangeScreen(f *testing.F) { fuzzRows(f, checkScreen) }
