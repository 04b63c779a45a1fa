package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ft2/internal/numerics"
)

// ---- kernel identity: every row kernel must agree bit-for-bit ----

// The one-element kernel of either tier must propagate NaN: linear layers
// carry injected faults through these kernels.
func TestDotRowPropagatesNaN(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		nan := float32(math.NaN())
		for _, n := range []int{1, 5, 8, 16, 33, 96} {
			for _, pos := range []int{0, n / 2, n - 1} {
				a := make([]float32, n)
				b := make([]float32, n)
				for i := range a {
					a[i], b[i] = 1, 2
				}
				b[pos] = nan
				if v := dotRef(a, b); !math.IsNaN(float64(v)) {
					t.Fatalf("n=%d pos=%d: dot = %g, want NaN", n, pos, v)
				}
			}
		}
	})
}

// The f16 row kernels must be bit-identical to the f32 kernel over the
// decoded master copy — VCVTPH2PS is exact, so any divergence is an op
// order bug.
func TestDotRowF16MatchesF32(t *testing.T) {
	if !hasF16C {
		t.Skip("no F16C tier on this host")
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 7, 8, 9, 16, 17, 24, 33, 96, 264, 384} {
		a := make([]float32, n)
		bf := make([]float32, n)
		bh := make([]uint16, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			hb := numerics.F32ToF16Bits(float32(rng.NormFloat64()))
			bh[i] = hb
			bf[i] = numerics.F16BitsToF32(hb)
		}
		got := dotRowF16(a, bh)
		want := dotRef(a, bf)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("n=%d: dotRowF16 = %x, dotVecFMA = %x", n, math.Float32bits(got), math.Float32bits(want))
		}
		lda := n
		a4 := make([]float32, 4*n)
		for i := range a4 {
			a4[i] = float32(rng.NormFloat64())
		}
		r0, r1, r2, r3 := dotRow4F16(a4, lda, bh)
		for i, g := range []float32{r0, r1, r2, r3} {
			w := dotRowF16(a4[i*lda:i*lda+n], bh)
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("n=%d row %d: dotRow4F16 = %x, dotRowF16 = %x", n, i, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
}

// ---- MatMulT identity: serial kernel ≡ per-element reference, f16 ----

// The one MatMulT traversal must produce results bit-identical to the tier's
// one-element kernel, on both tiers, across the row-count classes (single
// row, a 4-row group plus remainder, the column-tiled ≥8-row form),
// including with a packed-f16 operand streaming on and off.
func TestMatMulTPlansBitIdentical(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, shape := range [][3]int{{1, 96, 40}, {6, 96, 40}, {13, 33, 70}} {
			m, k, n := shape[0], shape[1], shape[2]
			a := New(m, k)
			b := New(n, k)
			a.RandNormal(rng, 1)
			b.RandNormal(rng, 1)

			ref := New(m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					ref.Data[i*n+j] = dotRef(a.Row(i), b.Row(j))
				}
			}

			serial := New(m, n)
			matMulTRows(serial, a, b, 0, m)
			if !serial.Equal(ref) {
				t.Errorf("%v: serial MatMulT diverges from the per-element kernel", shape)
			}

			// f16: packing rounds b, so recompute the serial reference, then
			// check streamed (shadow read) against unstreamed (master copy
			// read).
			b.PackF16()
			f32ref := New(m, n)
			prev := SetF16Streaming(false)
			matMulTRows(f32ref, a, b, 0, m)
			SetF16Streaming(true)
			f16out := New(m, n)
			matMulTRows(f16out, a, b, 0, m)
			SetF16Streaming(prev)
			if !f16out.Equal(f32ref) {
				t.Errorf("%v: f16-streamed MatMulT diverges from f32 over the same rounded weights", shape)
			}
		}
	})
}
