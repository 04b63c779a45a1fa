//go:build !amd64

package tensor

import "ft2/internal/numerics"

// Non-amd64 hosts have no SIMD kernels: one scalar tier for everything, and
// no packed-f16 streaming (halfData gates on hasF16C, so the f32 master copy
// is always used — bit-identical by construction).
var (
	hasFMA  = false
	hasF16C = false
)

// Dot is a 4-way unrolled dot product; with independent accumulators the
// compiler keeps four FMA chains in flight, roughly doubling throughput on
// the scalar path. (amd64 builds use the SSE kernel in dot_amd64.s instead.)
func Dot(a, b []float32) float32 {
	n := len(a)
	b = b[:n] // hoist the bounds check
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// DotStride fills dst[j] = Dot(q, k[j*d:(j+1)*d]) * scale for j in
// [0, limit) — the reference definition of the amd64 stride kernel.
func DotStride(dst, q, k []float32, d, limit int, scale float32) {
	q = q[:d]
	for j := 0; j < limit; j++ {
		dst[j] = Dot(q, k[j*d:(j+1)*d]) * scale
	}
}

// AxpyStride accumulates dst += w[j]·v[j*d:(j+1)*d] for j in [0, limit),
// skipping exact-zero weights — the reference definition of the amd64
// stride kernel: one multiply then one add per element, in j order.
func AxpyStride(dst, v, w []float32, d, limit int) {
	dst = dst[:d]
	for j := 0; j < limit; j++ {
		wj := w[j]
		if wj == 0 {
			continue
		}
		src := v[j*d : (j+1)*d]
		for i := range dst {
			dst[i] += float32(wj * src[i]) // the conversion forbids fusing into an FMA
		}
	}
}

// quantizeF16 is the scalar reference: round every element through binary16
// in place. (amd64 hosts with F16C use the VCVTPS2PH kernel instead.)
func quantizeF16(data []float32) {
	for i, v := range data {
		data[i] = numerics.RoundF16(v)
	}
}

// The column-sweep MatMulT kernels are unreachable without hasFMA:
// matMulTRows/matMulTCols compute every element with Dot here.
func matMulTSweep4(out []float32, ldo int, a []float32, lda int, b []float32, k, cols int) {
	panic("tensor: sweep kernel without FMA tier")
}

func matMulTSweep1(out, a, b []float32, k, cols int) {
	panic("tensor: sweep kernel without FMA tier")
}

// ScaleSlice multiplies every element of p by s in place — the scalar
// reference of the amd64 vector kernel.
func ScaleSlice(p []float32, s float32) {
	for i := range p {
		p[i] *= s
	}
}

// RangeScreen reports "no screen": callers run their scalar sweeps. (amd64
// builds screen a row with the SSE kernel in dot_amd64.s.)
func RangeScreen(row []float32) (lo, hi float32, ok bool) { return 0, 0, false }

// siluFinish reports false so SiLU runs its scalar finishing loop.
func siluFinish(p []float32, e []float64) bool { return false }

// The packed exp is unreachable without hasFMA: SoftmaxRow and SiLU run
// their scalar math.Exp loops.
func expSumVec(p *float32, n int, maxv, sum float32) (done int, out float32) {
	panic("tensor: packed exp without FMA tier")
}

func expNegVec(dst *float64, src *float32, n int) (done int) {
	panic("tensor: packed exp without FMA tier")
}

// The f16 kernels are unreachable without hasF16C; halfData never hands out
// a packed view here.
func dotRowF16(a []float32, b []uint16) float32 {
	panic("tensor: f16 kernel without F16C tier")
}

func dotRow4F16(a []float32, lda int, b []uint16) (r0, r1, r2, r3 float32) {
	panic("tensor: f16 kernel without F16C tier")
}
