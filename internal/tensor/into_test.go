package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randTensor(rng *rand.Rand, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// Regression: MatMul must not skip zero elements of a — 0 × NaN and
// 0 × ±Inf are NaN and a masked fault would silently vanish from the
// campaign.
func TestMatMulZeroTimesNaNPropagates(t *testing.T) {
	nan := float32(math.NaN())
	for _, poison := range []float32{nan, float32(math.Inf(1)), float32(math.Inf(-1))} {
		a := FromSlice(1, 2, []float32{0, 1})
		b := FromSlice(2, 2, []float32{poison, 2, 3, 4})
		out := MatMul(a, b)
		// out[0][0] = 0*poison + 1*3 — NaN through the 0×poison term.
		if !math.IsNaN(float64(out.Data[0])) {
			t.Errorf("0 × %g was skipped: got %g, want NaN", poison, out.Data[0])
		}
		// out[0][1] = 0*2 + 1*4 stays clean.
		if out.Data[1] != 4 {
			t.Errorf("finite column corrupted: got %g, want 4", out.Data[1])
		}
	}
}

// Dot must agree with a sequential reference within float32 reassociation
// error on every size class the SSE kernel branches on (scalar tail, 4- and
// 16-float blocks).
func TestDotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 31, 32, 33, 63, 64, 96, 97, 264, 384} {
		a := make([]float32, n)
		b := make([]float32, n)
		var want float64
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
			want += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		if math.Abs(got-want) > 1e-4*math.Max(1, math.Abs(want)) {
			t.Errorf("n=%d: Dot = %g, reference = %g", n, got, want)
		}
	}
}

// Dot must propagate NaN from either operand — attention scores over a
// corrupted KV row have to surface the fault, not average it away.
func TestDotPropagatesNaN(t *testing.T) {
	for _, n := range []int{4, 16, 33} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i], b[i] = 1, 1
		}
		b[n-1] = float32(math.NaN())
		if v := Dot(a, b); !math.IsNaN(float64(v)) {
			t.Errorf("n=%d: Dot = %g, want NaN", n, v)
		}
	}
}

func TestMatMulTIntoMatchesMatMulT(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		a := randTensor(rng, 5, 24)
		b := randTensor(rng, 7, 24)
		want := MatMulT(a, b)
		out := New(5, 7)
		for i := range out.Data {
			out.Data[i] = 99 // must be fully overwritten, not accumulated into
		}
		MatMulTInto(out, a, b)
		for i, v := range want.Data {
			if out.Data[i] != v {
				t.Fatalf("elem %d: %g != %g", i, out.Data[i], v)
			}
		}
	})
}

func TestLinearIntoMatchesLinear(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		x := randTensor(rng, 4, 16)
		w := randTensor(rng, 10, 16)
		bias := make([]float32, 10)
		for i := range bias {
			bias[i] = float32(rng.NormFloat64())
		}
		want := Linear(x, w, bias)
		got := LinearInto(New(4, 10), x, w, bias)
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("elem %d: %g != %g", i, got.Data[i], v)
			}
		}
	})
}

func TestNormIntoMatchesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 3, 12)
	gamma := make([]float32, 12)
	beta := make([]float32, 12)
	for i := range gamma {
		gamma[i] = float32(rng.NormFloat64())
		beta[i] = float32(rng.NormFloat64())
	}
	ln := LayerNorm(x, gamma, beta, 1e-5)
	lnInto := LayerNormInto(New(3, 12), x, gamma, beta, 1e-5)
	rms := RMSNorm(x, gamma, 1e-5)
	rmsInto := RMSNormInto(New(3, 12), x, gamma, 1e-5)
	for i := range ln.Data {
		if ln.Data[i] != lnInto.Data[i] {
			t.Fatalf("LayerNormInto elem %d: %g != %g", i, lnInto.Data[i], ln.Data[i])
		}
		if rms.Data[i] != rmsInto.Data[i] {
			t.Fatalf("RMSNormInto elem %d: %g != %g", i, rmsInto.Data[i], rms.Data[i])
		}
	}
}

func TestReuse(t *testing.T) {
	x := New(4, 8)
	data := &x.Data[0]
	x.Reuse(2, 8)
	if x.Rows != 2 || x.Cols != 8 || len(x.Data) != 16 {
		t.Fatalf("Reuse shrink: got %dx%d len %d", x.Rows, x.Cols, len(x.Data))
	}
	if &x.Data[0] != data {
		t.Error("Reuse within capacity must not reallocate")
	}
	x.Reuse(16, 8)
	if x.Rows != 16 || x.Cols != 8 || len(x.Data) != 128 {
		t.Fatalf("Reuse grow: got %dx%d len %d", x.Rows, x.Cols, len(x.Data))
	}
}

// RopeTable.Apply must be bit-identical to rotaryEmbedRef — the table is a pure
// caching layer over the same float64 rotation.
func TestRopeTableMatchesRotaryEmbed(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const dim, maxPos = 16, 32
	rt := NewRopeTable(maxPos, dim, 10000)
	for pos := 0; pos < maxPos; pos += 5 {
		direct := randTensor(rng, 1, dim)
		viaTable := direct.Clone()
		rotaryEmbedRef(direct, []int{pos}, dim, 10000)
		rt.Apply(viaTable.Row(0), pos)
		for i := range direct.Data {
			if math.Float32bits(direct.Data[i]) != math.Float32bits(viaTable.Data[i]) {
				t.Fatalf("pos %d elem %d: table %g != direct %g", pos, i, viaTable.Data[i], direct.Data[i])
			}
		}
	}
}

// rotaryEmbedRef applies rotary position embeddings (RoPE) in place to a
// row-major [seq × dim] tensor whose rows are per-position head vectors
// laid out as interleaved (even, odd) pairs over rotDim dimensions.
// positions gives the absolute position of each row. It is the direct
// computation RopeTable caches, kept as the definition the table is held to.
func rotaryEmbedRef(t *Tensor, positions []int, rotDim int, base float64) {
	if rotDim > t.Cols {
		panic("tensor: rotaryEmbedRef rotDim exceeds width")
	}
	if len(positions) != t.Rows {
		panic("tensor: rotaryEmbedRef positions length mismatch")
	}
	half := rotDim / 2
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		pos := float64(positions[r])
		for i := 0; i < half; i++ {
			theta := pos / math.Pow(base, 2*float64(i)/float64(rotDim))
			sin, cos := math.Sincos(theta)
			a, b := float64(row[2*i]), float64(row[2*i+1])
			row[2*i] = float32(a*cos - b*sin)
			row[2*i+1] = float32(a*sin + b*cos)
		}
	}
}
