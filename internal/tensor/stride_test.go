package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// TestDotStrideBitIdentity checks the stride score kernel against
// per-position Dot calls bit for bit, across head dims, limits, and value
// classes (normals, NaN, ±Inf lanes).
func TestDotStrideBitIdentity(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		fill := func(p []float32) {
			for i := range p {
				switch rng.Intn(20) {
				case 0:
					p[i] = float32(math.NaN())
				case 1:
					p[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
				default:
					p[i] = rng.Float32()*4 - 2
				}
			}
		}
		for _, d := range []int{1, 3, 8, 12, 16, 24, 33} {
			for _, limit := range []int{0, 1, 2, 7, 40, 250} {
				q := make([]float32, d)
				k := make([]float32, (limit+1)*d)
				fill(q)
				fill(k)
				scale := rng.Float32() + 0.5
				got := make([]float32, limit+1)
				want := make([]float32, limit+1)
				for j := 0; j < limit; j++ {
					want[j] = Dot(q, k[j*d:(j+1)*d]) * scale
				}
				DotStride(got, q, k, d, limit, scale)
				for j := 0; j < limit; j++ {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("d=%d limit=%d j=%d: got %08x want %08x",
							d, limit, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
	})
}

// TestAxpyStrideBitIdentity checks the stride context kernel against the
// per-position Axpy loop bit for bit, including exact-zero weight skips
// (both signs), NaN weights (which must NOT be skipped), and NaN/Inf V
// lanes.
func TestAxpyStrideBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, d := range []int{1, 3, 8, 12, 16, 24, 33} {
		for _, limit := range []int{0, 1, 2, 7, 40, 250} {
			v := make([]float32, (limit+1)*d)
			w := make([]float32, limit+1)
			for i := range v {
				if rng.Intn(25) == 0 {
					v[i] = float32(math.Inf(1))
				} else {
					v[i] = rng.Float32()*2 - 1
				}
			}
			for j := range w {
				switch rng.Intn(6) {
				case 0:
					w[j] = 0
				case 1:
					w[j] = float32(math.Copysign(0, -1))
				case 2:
					w[j] = float32(math.NaN())
				default:
					w[j] = rng.Float32()
				}
			}
			got := make([]float32, d)
			want := make([]float32, d)
			for i := range got {
				got[i] = rng.Float32()
				want[i] = got[i]
			}
			for j := 0; j < limit; j++ {
				if w[j] == 0 {
					continue
				}
				Axpy(want, v[j*d:(j+1)*d], w[j])
			}
			AxpyStride(got, v, w, d, limit)
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("d=%d limit=%d i=%d: got %08x want %08x",
						d, limit, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}
