package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// expEdge is the largest float32 magnitude the exhaustive sweep visits: the
// packed exp's screen is [−708, 709], so ±709 takes in both of its edges.
const expEdge = 709

// expSpecials are the inputs the packed exp must hand to scalar math.Exp, or
// sit next to: NaNs with payloads, infinities, zeros, denormals, both screen
// edges ± 1 ulp, archExp's overflow threshold, the denormal-result band
// (−745 … −708.4) and full underflow.
var expSpecials = func() []float32 {
	s := []float32{
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00001),
		math.Float32frombits(0x7f800001), math.Float32frombits(0x7fc12345),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x80000001),
		709.7827, 709.78, 710, 1000, math.MaxFloat32, -math.MaxFloat32,
		-708.3, -708.5, -709, -720, -744, -745.2, -746, -1000,
	}
	for _, edge := range []float32{-708, 709} {
		s = append(s, math.Nextafter32(edge, -1000), edge, math.Nextafter32(edge, 1000))
	}
	return s
}()

// expScratch is the output space of one check caller, sized for its longest
// input.
type expScratch struct {
	got32, neg []float32
	got64      []float64
}

func newExpScratch(n int) *expScratch {
	return &expScratch{make([]float32, n), make([]float32, n), make([]float64, n)}
}

// check holds both forms of the exp pass to scalar math.Exp on xs, bit for
// bit: expSum with a zero maximum (values narrowed to float32, and their sum
// in index order) and expNeg on the negated inputs (float64 values). It
// reports the first mismatch with t.Errorf and returns false, so the sweep's
// worker goroutines can use it too.
func (s *expScratch) check(t *testing.T, xs []float32) bool {
	got32, neg, got64 := s.got32[:len(xs)], s.neg[:len(xs)], s.got64[:len(xs)]
	copy(got32, xs)
	for i, x := range xs {
		neg[i] = -x
	}
	gotSum := expSum(got32, 0)
	expNeg(got64, neg)
	var sum float32
	for i, x := range xs {
		want := math.Exp(float64(x))
		sum += float32(want)
		if math.Float32bits(got32[i]) != math.Float32bits(float32(want)) {
			t.Errorf("expSum: len %d i=%d x=%v (%#x): got %#x want %#x", len(xs), i, x,
				math.Float32bits(x), math.Float32bits(got32[i]), math.Float32bits(float32(want)))
			return false
		}
		if math.Float64bits(got64[i]) != math.Float64bits(want) {
			t.Errorf("expNeg: len %d i=%d x=%v (%#x): got %#x want %#x", len(xs), i, x,
				math.Float32bits(x), math.Float64bits(got64[i]), math.Float64bits(want))
			return false
		}
	}
	if math.Float32bits(gotSum) != math.Float32bits(sum) {
		t.Errorf("expSum: len %d: sum %#x want %#x (xs %v)", len(xs), math.Float32bits(gotSum), math.Float32bits(sum), xs)
		return false
	}
	return true
}

// TestExpVecMatchesMathExp compares the packed exp with math.Exp of the
// running toolchain. Always: every special at every position of every length
// 1–9 (each lane, with and without a tail) among in-range neighbours, and a
// strided sample of float32 bit patterns. Without -short, on the FMA tier:
// every float32 bit pattern in [−709, 709] — on the SSE tier both sides are
// the same scalar loop, so the sample is all it runs.
func TestExpVecMatchesMathExp(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(31))
		s := newExpScratch(9)
		for n := 1; n <= 9; n++ {
			xs := make([]float32, n)
			for i := range xs {
				xs[i] = float32(r.NormFloat64() * 40)
			}
			ok := s.check(t, xs)
			for i := range xs {
				keep := xs[i]
				for _, special := range expSpecials {
					xs[i] = special
					ok = ok && s.check(t, xs)
				}
				xs[i] = keep
			}
			if !ok {
				t.FailNow()
			}
		}
		stride := uint32(9973)
		if !testing.Short() && hasFMA {
			stride = 1
		}
		sweepExp(t, stride)
	})
}

// sweepExp checks every stride-th float32 bit pattern of both signs up to
// ±expEdge, in blocks of consecutive samples split over four goroutines.
func sweepExp(t *testing.T, stride uint32) {
	const block = 4096
	top := math.Float32bits(expEdge)
	blocks := make(chan uint32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs, s := make([]float32, 0, block), newExpScratch(block)
			for lo := range blocks { // keeps draining after a failure so the sender never blocks
				for _, sign := range []uint32{0, 1 << 31} {
					xs = xs[:0]
					for b := lo; b <= top && len(xs) < block; b += stride {
						xs = append(xs, math.Float32frombits(sign|b))
					}
					if t.Failed() || !s.check(t, xs) {
						break
					}
				}
			}
		}()
	}
	for lo := uint32(0); lo <= top && !t.Failed(); lo += block * stride {
		blocks <- lo
	}
	close(blocks)
	wg.Wait()
}

// softmaxRowRef is the loop attention ran before SoftmaxRow existed, kept
// verbatim as the definition the primitive is held to.
func softmaxRowRef(scores []float32) float32 {
	limit := len(scores)
	maxv := float32(math.Inf(-1))
	for j := 0; j < limit; j++ {
		if s := scores[j]; !math.IsNaN(float64(s)) && s > maxv {
			maxv = s
		}
	}
	var sum float32
	for j := 0; j < limit; j++ {
		e := float32(math.Exp(float64(scores[j] - maxv)))
		scores[j] = e
		sum += e
	}
	return sum
}

func checkSoftmaxRow(t *testing.T, row []float32) {
	want := append([]float32(nil), row...)
	got := append([]float32(nil), row...)
	wantSum, gotSum := softmaxRowRef(want), SoftmaxRow(got)
	if math.Float32bits(gotSum) != math.Float32bits(wantSum) {
		t.Fatalf("len %d: sum %#x want %#x (row %v)", len(row), math.Float32bits(gotSum), math.Float32bits(wantSum), row)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("len %d i=%d: got %#x want %#x (row %v)", len(row), i, math.Float32bits(got[i]), math.Float32bits(want[i]), row)
		}
	}
}

// TestSoftmaxRowMatchesScalar: the screen rows (clean, then every special —
// NaN, ±Inf, zeros, denormals, ±MaxFloat32 — at every position of every
// length 0–67), the same rows spread wide enough that some differences fall
// below the kernel's −708 edge, uniform rows of each special (all −Inf: the
// maximum stays −Inf and every difference is NaN), and mixed-class rows.
func TestSoftmaxRowMatchesScalar(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		wide := make([]float32, 67)
		forEachScreenRow(false, func(row []float32) {
			checkSoftmaxRow(t, row)
			for i, v := range row {
				wide[i] = v * 150
			}
			checkSoftmaxRow(t, wide[:len(row)])
		})
		r := rand.New(rand.NewSource(32))
		for n := 1; n <= 67; n++ {
			row := make([]float32, n)
			for _, s := range screenSpecials {
				for i := range row {
					row[i] = math.Float32frombits(s)
				}
				checkSoftmaxRow(t, row)
			}
			for rep := 0; rep < 20; rep++ {
				fillPattern(r, row)
				checkSoftmaxRow(t, row)
			}
		}
	})
}

func FuzzSoftmaxRow(f *testing.F) { fuzzRows(f, checkSoftmaxRow) }

// benchTiers runs fn as "kernel" on the host tier and, on an FMA host, again
// as "scalar" with the tier switched off, reporting ns per element for each.
func benchTiers(b *testing.B, elems int, fn func()) {
	run := func(name string) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/elem")
		})
	}
	run("kernel")
	if hasFMA {
		onSSETier(func() { run("scalar") })
	}
}

// BenchmarkSoftmaxRow times one attention score row at the KV depths the
// benchmark workloads reach; each iteration re-copies the row (in both
// variants) because the primitive works in place.
func BenchmarkSoftmaxRow(b *testing.B) {
	r := rand.New(rand.NewSource(33))
	for _, limit := range []int{16, 64, 200} {
		src, row := make([]float32, limit), make([]float32, limit)
		for i := range src {
			src[i] = float32(r.NormFloat64())
		}
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			benchTiers(b, limit, func() {
				copy(row, src)
				SoftmaxRow(row)
			})
		})
	}
}

// BenchmarkSiLU times the gate activation at the zoo's MLP width.
func BenchmarkSiLU(b *testing.B) {
	const width = 264
	r := rand.New(rand.NewSource(34))
	src, x := make([]float32, width), New(1, width)
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	benchTiers(b, width, func() {
		copy(x.Data, src)
		SiLU(x)
	})
}
