package tensor

import "ft2/internal/numerics"

// The kernels of dot_amd64.s, two tiers (DESIGN.md §12): the SSE baseline
// (dotVec, dotStrideVec, axpyStrideVec, scaleVec, rangeScreenVec — one body
// each on both tiers, no CPUID gate) and the FMA tier — matMulT1Vec/matMulT4Vec
// over f32 weights, dotVecF16C/dotVec4F16C over packed-f16 weights,
// quantizeF16Vec, siluFinishVec, and the packed exp behind expSumVec/expNegVec.
// dotVecFMA has no engine caller: it is the one-element definition of the FMA
// tier's op order, which the tests hold the sweeps and the F16C kernels to bit
// for bit.
func dotVec(a, b *float32, n int) float32
func dotVecFMA(a, b *float32, n int) float32
func dotVecF16C(a *float32, b *uint16, n int) float32
func dotVec4F16C(a *float32, lda int, b *uint16, n int) (r0, r1, r2, r3 float32)
func quantizeF16Vec(p *float32, n int)
func dotStrideVec(dst, q, k *float32, d, limit int, scale float32)
func axpyStrideVec(dst, v, w *float32, d, limit int)
func matMulT1Vec(out, a, b *float32, k, cols int)
func matMulT4Vec(out *float32, ldo int, a *float32, lda int, b *float32, k, cols int)
func scaleVec(p *float32, n int, s float32)
func rangeScreenVec(p *float32, n int) (lo, hi float32, nan bool)

//go:noescape
func siluFinishVec(p *float32, e *float64, n int)

// The packed exp (math.archExp's FMA path, four lanes wide): both stop
// before the first group of four that fails the kernel's range screen and
// return how many elements they finished. hasFMA only; it implies math's own
// useFMA (AVX + FMA), so kernel and scalar math.Exp run the same arithmetic —
// except under GODEBUG=cpu.fma=off, which switches math to its non-FMA path
// and leaves this kernel on: still one function for every engine path, but no
// longer the golden digests' bits.
//
//go:noescape
func expSumVec(p *float32, n int, maxv, sum float32) (done int, out float32)

//go:noescape
func expNegVec(dst *float64, src *float32, n int) (done int)

// Dot computes the dot product of a and b (len(b) >= len(a)) with the
// 4-lane SSE kernel. Lane-parallel accumulation reorders the float32 sums
// relative to a sequential loop; all engine paths (prefill and decode) go
// through this same kernel, so cached and recomputed activations stay
// bit-identical to each other. Dot deliberately does NOT use the FMA tier:
// attention scores keep exact multiply-then-add numerics on every host, and
// a host without FMA computes its linear layers element by element with it.
func Dot(a, b []float32) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n] // bounds hint: panics early if b is shorter
	return dotVec(&a[0], &b[0], n)
}

// dotRowF16 is the one-element FMA kernel with b stored as packed binary16.
// Callers must gate on hasF16C (halfData does); conversion through VCVTPH2PS
// is exact, so the result is bit-identical to dotVecFMA over the pre-decoded
// f32 master copy.
func dotRowF16(a []float32, b []uint16) float32 {
	n := len(a)
	if n == 0 {
		return 0
	}
	b = b[:n]
	return dotVecF16C(&a[0], &b[0], n)
}

// DotStride fills dst[j] = Dot(q, k[j*d:(j+1)*d]) * scale for j in
// [0, limit) — the attention score sweep of one (row, head) against a
// contiguous per-head K slab — value for value what the per-position Dot
// calls return, NaN payloads and zero signs included. At the head dimensions
// 4, 8, 12 and 16 the kernel keeps q in registers and scores four positions
// per reduction; elsewhere it runs the Dot body once per position.
func DotStride(dst, q, k []float32, d, limit int, scale float32) {
	if limit <= 0 {
		return
	}
	_ = dst[limit-1]
	_ = k[limit*d-1]
	_ = q[d-1]
	dotStrideVec(&dst[0], &q[0], &k[0], d, limit, scale)
}

// AxpyStride accumulates dst += w[j]·v[j*d:(j+1)*d] for j in [0, limit),
// skipping exact-zero weights — the attention context accumulation of one
// (row, head) over a contiguous per-head V slab. The kernel holds dst in
// registers across the positions, but per element it is the scalar loop's
// multiply-then-add (never FMA) in the same j order, so the result is
// bit-identical to `dst[i] += w[j]*v[j*d+i]`. NaN weights are not skipped
// (0·Inf and NaN propagation match the scalar guard `if w[j] == 0`).
func AxpyStride(dst, v, w []float32, d, limit int) {
	if limit <= 0 {
		return
	}
	_ = w[limit-1]
	_ = v[limit*d-1]
	_ = dst[d-1]
	axpyStrideVec(&dst[0], &v[0], &w[0], d, limit)
}

// quantizeF16 rounds every element of data through binary16 in place — the
// activation-precision step every layer output passes through. On F16C
// hosts the vector kernel round-trips 8 lanes per VCVTPS2PH/VCVTPH2PS pair
// with round-to-nearest-even forced by the immediate, which is bit-identical
// to numerics.RoundF16 on every input class (normals, subnormals, ±0, ±Inf,
// NaN — TestQuantizeF16VecBitIdentity sweeps them all); elsewhere it is the
// scalar loop.
func quantizeF16(data []float32) {
	n := len(data)
	if hasF16C {
		if v := n &^ 7; v > 0 {
			quantizeF16Vec(&data[0], v)
		}
		for i := n &^ 7; i < n; i++ {
			data[i] = numerics.RoundF16(data[i])
		}
		return
	}
	for i, v := range data {
		data[i] = numerics.RoundF16(v)
	}
}

// matMulTSweep4 computes out[r·ldo+j] = dotVecFMA(a[r·lda:], b[j·k:]) for
// r in 0..3 and j in [0, cols) in one kernel call — the 4-row MatMulT block
// of the FMA tier, streaming each b row once for four output rows. Callers
// gate on hasFMA; k and cols are positive.
func matMulTSweep4(out []float32, ldo int, a []float32, lda int, b []float32, k, cols int) {
	_ = a[3*lda+k-1]
	_ = b[cols*k-1]
	_ = out[3*ldo+cols-1]
	matMulT4Vec(&out[0], ldo, &a[0], lda, &b[0], k, cols)
}

// matMulTSweep1 is the single-row variant: out[j] = dotVecFMA(a, b[j·k:])
// for j in [0, cols).
func matMulTSweep1(out, a, b []float32, k, cols int) {
	_ = a[k-1]
	_ = b[cols*k-1]
	_ = out[cols-1]
	matMulT1Vec(&out[0], &a[0], &b[0], k, cols)
}

// ScaleSlice multiplies every element of p by s in place. A uniform
// multiply is one IEEE operation per lane, so the vector kernel is
// bit-identical to the scalar loop on every input (NaN, ±Inf included).
func ScaleSlice(p []float32, s float32) {
	if len(p) == 0 {
		return
	}
	scaleVec(&p[0], len(p), s)
}

// RangeScreen is the cheap first look FT2's observe and clamp sweeps take at
// a row: with ok, row holds no NaN and lo/hi are its minimum and maximum
// (±Inf included; a zero extremum may carry either sign). !ok — a NaN
// somewhere, an empty row, or a host without the kernel — proves nothing, and
// the caller runs its scalar sweep.
func RangeScreen(row []float32) (lo, hi float32, ok bool) {
	if len(row) == 0 {
		return 0, 0, false
	}
	lo, hi, nan := rangeScreenVec(&row[0], len(row))
	return lo, hi, !nan
}

// siluFinish completes SiLU after the exp pass: p[i] =
// float32(float64(p[i]) / (1 + e[i])). Widening, add, divide, and
// narrowing are each single correctly-rounded IEEE operations per lane,
// so the vector kernel matches the scalar reference bitwise. Returns
// false when the AVX2 tier is absent.
func siluFinish(p []float32, e []float64) bool {
	if !hasFMA {
		return false
	}
	n := len(p) &^ 3
	if n > 0 {
		_ = e[n-1]
		siluFinishVec(&p[0], &e[0], n)
	}
	for i := n; i < len(p); i++ {
		p[i] = float32(float64(p[i]) / (1 + e[i]))
	}
	return true
}

// dotRow4F16 is four dotRowF16 products of consecutive a-rows (stride lda
// floats) against one shared b row, streamed once; hasF16C only.
func dotRow4F16(a []float32, lda int, b []uint16) (r0, r1, r2, r3 float32) {
	n := len(b)
	if n == 0 {
		return 0, 0, 0, 0
	}
	_ = a[3*lda+n-1]
	return dotVec4F16C(&a[0], lda, &b[0], n)
}
