package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
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

// ---- MatMulT identity: serial kernel ≡ per-element reference ----

// checkMatMulT holds MatMulTInto(a, b) to dotRef per element, bit for bit,
// on the tier in effect.
func checkMatMulT(t *testing.T, what string, a, b *Tensor) {
	t.Helper()
	m, n := a.Rows, b.Rows
	got := MatMulTInto(New(m, n), a, b)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if g, w := got.Data[i*n+j], dotRef(a.Row(i), b.Row(j)); !sameBits(g, w) {
				t.Fatalf("%s (%d,%d): got %08x want %08x", what, i, j, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
}

// randNaN is a NaN of either sign, quiet or signalling, with a random payload.
func randNaN(r *rand.Rand) float32 {
	return math.Float32frombits(randSign(r) | 0x7f800000 | uint32(1+r.Intn(1<<23-1)))
}

// plantSpecials fills a and b (rows of width k) with normals, leaves a third
// of the rows so and puts one special at a random index of each other row — a
// zero of either sign, a subnormal, ±Inf or a NaN with a random payload; then
// one a row and one b row get NaNs with different payloads at the same index,
// so the output they meet in shows whose payload wins.
func plantSpecials(r *rand.Rand, a, b []float32, k int) {
	for _, p := range [][]float32{a, b} {
		for i := range p {
			p[i] = r.Float32()*4 - 2
		}
		for row := 0; row < len(p)/k; row++ {
			if r.Intn(3) == 0 {
				continue
			}
			v := randNaN(r)
			switch r.Intn(4) {
			case 0:
				v = math.Float32frombits(randSign(r))
			case 1:
				v = math.Float32frombits(randSign(r) | uint32(1+r.Intn(1<<23-1)))
			case 2:
				v = math.Float32frombits(randSign(r) | 0x7f800000)
			}
			p[row*k+r.Intn(k)] = v
		}
	}
	at := r.Intn(k)
	a[r.Intn(len(a)/k)*k+at] = randNaN(r)
	b[r.Intn(len(b)/k)*k+at] = randNaN(r)
}

// The one MatMulT traversal must produce results bit-identical to the tier's
// one-element kernel on every tier leg, NaN payloads and zero signs included:
// every row-count class (one row, 4-row groups plus remainders), every k
// tail of the 16-float loop and every column remainder of the four-column
// ZMM sweep, with specials planted.
func TestMatMulTPlansBitIdentical(t *testing.T) {
	ks := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 95, 96, 97, 264, 384}
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for m := 1; m <= 9; m++ {
			for _, k := range ks {
				for _, n := range []int{1, 2, 3, 4, 5, 7, 40, 70, 96} {
					what := fmt.Sprintf("m=%d k=%d n=%d", m, k, n)
					a, b := New(m, k), New(n, k)
					plantSpecials(rng, a.Data, b.Data, k)
					checkMatMulT(t, what, a, b)
				}
			}
		}
	})
}

// FuzzMatMulT holds MatMulTInto to dotRef on raw bit patterns, on every tier
// leg: byte 0 picks m in 1–9, byte 1 k in 1–48, byte 2 n in 1–12, and the
// rest are little-endian float32s filling a then b, repeated as often as it
// takes. The seeds are small plantSpecials cases.
func FuzzMatMulT(f *testing.F) {
	r := rand.New(rand.NewSource(19))
	for _, s := range [][3]int{{1, 16, 4}, {1, 9, 7}, {1, 33, 8}, {4, 24, 5}, {9, 17, 12}} {
		m, k, n := s[0], s[1], s[2]
		ab := make([]float32, (m+n)*k)
		plantSpecials(r, ab[:m*k], ab[m*k:], k)
		seed := []byte{byte(m - 1), byte(k - 1), byte(n - 1)}
		for _, v := range ab {
			seed = binary.LittleEndian.AppendUint32(seed, math.Float32bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 7 {
			return
		}
		m, k, n := 1+int(raw[0])%9, 1+int(raw[1])%48, 1+int(raw[2])%12
		vals, ab := raw[3:], make([]float32, (m+n)*k)
		for i := range ab {
			ab[i] = math.Float32frombits(binary.LittleEndian.Uint32(vals[4*(i%(len(vals)/4)):]))
		}
		a, b := FromSlice(m, k, ab[:m*k]), FromSlice(n, k, ab[m*k:])
		for _, leg := range tierLegs() {
			leg.run(func() { checkMatMulT(t, fmt.Sprintf("%s m=%d k=%d n=%d", leg.name, m, k, n), a, b) })
		}
	})
}
