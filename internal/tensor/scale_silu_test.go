package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// reluRef is ReLU's loop before reluVec existed, kept verbatim as the
// definition the kernel is held to.
func reluRef(t *Tensor) {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// checkReLU holds ReLU to reluRef on xs, bit for bit, with got and want as
// scratch of at least len(xs). It reports the first mismatch with t.Errorf
// and returns false, so the sweep's worker goroutines can use it too.
func checkReLU(t *testing.T, xs, got, want []float32) bool {
	got, want = got[:len(xs)], want[:len(xs)]
	copy(got, xs)
	copy(want, xs)
	ReLU(FromSlice(1, len(xs), got))
	reluRef(FromSlice(1, len(xs), want))
	for i := range xs {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("ReLU: len %d i=%d x=%#x: got %#x want %#x", len(xs), i,
				math.Float32bits(xs[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
			return false
		}
	}
	return true
}

// TestReLUMatchesScalar compares ReLU with reluRef: every GELU special plus a
// negative signalling NaN at every position of every length 1–9 among random
// neighbours of both signs, and the float32 bit patterns in blocks of odd
// length (each block ends in a scalar tail, and a pattern's lane moves from
// block to block) — every pattern without -short, a strided sample with it.
func TestReLUMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	specials := append([]float32{math.Float32frombits(0xff800001)}, geluSpecials...)
	got, want := make([]float32, 9), make([]float32, 9)
	for n := 1; n <= 9; n++ {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = float32(r.NormFloat64())
		}
		ok := checkReLU(t, xs, got, want)
		for i := range xs {
			keep := xs[i]
			for _, special := range specials {
				xs[i] = special
				ok = ok && checkReLU(t, xs, got, want)
			}
			xs[i] = keep
		}
		if !ok {
			t.FailNow()
		}
	}
	stride := uint64(9973)
	if !testing.Short() {
		stride = 1
	}
	sweepBits(t, 0, math.MaxUint32, stride, 4095, func(n int) func([]float32) {
		got, want := make([]float32, n), make([]float32, n)
		return func(xs []float32) { checkReLU(t, xs, got, want) }
	})
}

// BenchmarkReLU times OPT's MLP activation at its FFN width, values of both
// signs, against the branching loop it replaced.
func BenchmarkReLU(b *testing.B) {
	const width = 384
	r := rand.New(rand.NewSource(38))
	src, x := make([]float32, width), New(1, width)
	for i := range src {
		src[i] = float32(r.NormFloat64())
	}
	for _, v := range []struct {
		name string
		fn   func(*Tensor)
	}{{"kernel", ReLU}, {"loop", reluRef}} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(x.Data, src)
				v.fn(x)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/elem")
		})
	}
}

// TestSiLUBitIdentity checks the split-loop SiLU (exp pass, then the
// finishing divide) against the original fused scalar loop, bitwise, over
// sizes that cross the chunk boundary and inputs including NaN, ±Inf, ±0,
// denormals, and magnitudes that overflow/underflow the sigmoid.
func TestSiLUBitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 3, 5, 8, 64, 255, 256, 257, 264, 1000} {
		xs := make([]float32, n)
		fillPattern(r, xs)
		for i := range xs {
			if i%9 == 0 {
				xs[i] = float32(r.NormFloat64()) * 100 // saturate the sigmoid
			}
		}
		want := make([]float32, n)
		for i, v := range xs {
			x := float64(v)
			want[i] = float32(x / (1 + math.Exp(-x)))
		}
		tt := &Tensor{Rows: 1, Cols: n, Data: xs}
		SiLU(tt)
		for i := range xs {
			if math.Float32bits(xs[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d i=%d in=%v: got %x want %x",
					n, i, want[i], math.Float32bits(xs[i]), math.Float32bits(want[i]))
			}
		}
	}
}
