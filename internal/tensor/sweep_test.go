package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fillPattern writes a deterministic mix of normals, tiny and huge values,
// exact zeros, and non-finite lanes so the sweep kernels are compared
// against the per-column reference on every value class.
func fillPattern(r *rand.Rand, xs []float32) {
	for i := range xs {
		switch r.Intn(12) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = float32(math.Copysign(0, -1))
		case 2:
			xs[i] = float32(math.Inf(1 - 2*r.Intn(2)))
		case 3:
			xs[i] = float32(math.NaN())
		case 4:
			xs[i] = float32(r.NormFloat64()) * 1e-30
		case 5:
			xs[i] = float32(r.NormFloat64()) * 1e30
		default:
			xs[i] = float32(r.NormFloat64())
		}
	}
}

// TestMatMulTSweepBitIdentity checks the column-sweep kernels against the
// FMA tier's one-element kernel, bitwise, over odd widths and non-finite
// inputs.
func TestMatMulTSweepBitIdentity(t *testing.T) {
	if !hasFMA {
		t.Skip("no FMA tier on this host")
	}
	r := rand.New(rand.NewSource(7))
	for _, k := range []int{1, 3, 7, 8, 12, 15, 16, 17, 31, 64, 96, 97} {
		for _, cols := range []int{1, 2, 5, 96, 131} {
			a := make([]float32, 4*k)
			b := make([]float32, cols*k)
			fillPattern(r, a)
			fillPattern(r, b)

			got1 := make([]float32, cols)
			matMulTSweep1(got1, a[:k], b, k, cols)
			for j := 0; j < cols; j++ {
				want := dotFMA(a[:k], b[j*k:(j+1)*k])
				if math.Float32bits(got1[j]) != math.Float32bits(want) {
					t.Fatalf("sweep1 k=%d cols=%d j=%d: got %x want %x",
						k, cols, j, math.Float32bits(got1[j]), math.Float32bits(want))
				}
			}

			ldo := cols + 3 // non-contiguous output rows exercise the stride
			got4 := make([]float32, 3*ldo+cols)
			matMulTSweep4(got4, ldo, a, k, b, k, cols)
			for rr := 0; rr < 4; rr++ {
				for j := 0; j < cols; j++ {
					want := dotFMA(a[rr*k:(rr+1)*k], b[j*k:(j+1)*k])
					if math.Float32bits(got4[rr*ldo+j]) != math.Float32bits(want) {
						t.Fatalf("sweep4 k=%d cols=%d r=%d j=%d: got %x want %x",
							k, cols, rr, j, math.Float32bits(got4[rr*ldo+j]), math.Float32bits(want))
					}
				}
			}
		}
	}
}
