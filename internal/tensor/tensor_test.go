package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ft2/internal/numerics"
)

func almostEqual(a, b, tol float32) bool {
	return float32(math.Abs(float64(a-b))) <= tol
}

func TestNewAndAccessors(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatal("New dimensions wrong")
	}
	m.Set(2, 3, 7)
	if m.At(2, 3) != 7 {
		t.Error("Set/At mismatch")
	}
	if len(m.Row(2)) != 4 || m.Row(2)[3] != 7 {
		t.Error("Row aliasing broken")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice should panic on length mismatch")
		}
	}()
	FromSlice(2, 3, []float32{1, 2})
}

// BindRowsView must re-aim a scratch header at a row range and alias the
// parent's storage; a second binding replaces the first.
func TestBindRowsView(t *testing.T) {
	first, parent := New(2, 5), New(3, 5)
	var scratch Tensor
	scratch.BindRowsView(first, 0, 1)
	scratch.BindRowsView(parent, 1, 2)
	if scratch.Rows != 2 || scratch.Cols != 5 || len(scratch.Data) != 10 {
		t.Fatalf("bound view shape %dx%d len %d", scratch.Rows, scratch.Cols, len(scratch.Data))
	}
	scratch.Data[0] = float32(math.Inf(1))
	if parent.Data[5] != float32(math.Inf(1)) {
		t.Error("bound view does not alias the parent rows")
	}
	if first.Data[0] != 0 {
		t.Error("re-aimed view still writes its old parent")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2, 2)
	a.Fill(1)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone must not share storage")
	}
	if !a.Equal(a.Clone()) {
		t.Error("Clone must be Equal to source")
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	got := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if got.Data[i] != w {
			t.Fatalf("MatMul[%d] = %g, want %g", i, got.Data[i], w)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(5, 5)
	a.RandNormal(rng, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if !MatMul(a, id).Equal(a) {
		t.Error("A × I must equal A")
	}
	if !MatMul(id, a).Equal(a) {
		t.Error("I × A must equal A")
	}
}

func TestMatMulTMatchesExplicitTranspose(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		a := New(7, 9)
		b := New(4, 9)
		a.RandNormal(rng, 1)
		b.RandNormal(rng, 1)
		bt := New(9, 4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 9; j++ {
				bt.Set(j, i, b.At(i, j))
			}
		}
		got := MatMulT(a, b)
		want := MatMul(a, bt)
		for i := range got.Data {
			if !almostEqual(got.Data[i], want.Data[i], 1e-4) {
				t.Fatalf("MatMulT[%d] = %g, want %g", i, got.Data[i], want.Data[i])
			}
		}
	})
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul should panic on shape mismatch")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestLinearBias(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		x := FromSlice(1, 2, []float32{1, 2})
		w := FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 1}) // out=3, in=2
		out := Linear(x, w, []float32{10, 20, 30})
		want := []float32{11, 22, 33}
		for i, v := range want {
			if out.Data[i] != v {
				t.Fatalf("Linear[%d] = %g, want %g", i, out.Data[i], v)
			}
		}
		// nil bias
		out2 := Linear(x, w, nil)
		want2 := []float32{1, 2, 3}
		for i, v := range want2 {
			if out2.Data[i] != v {
				t.Fatalf("Linear no-bias[%d] = %g, want %g", i, out2.Data[i], v)
			}
		}
	})
}

func TestAddAndInPlaceOps(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	s := Add(a, b)
	if s.Data[0] != 11 || s.Data[2] != 33 {
		t.Error("Add wrong")
	}
	AddInPlace(a, b)
	if a.Data[1] != 22 {
		t.Error("AddInPlace wrong")
	}
	MulInPlace(a, b)
	if a.Data[0] != 110 {
		t.Error("MulInPlace wrong")
	}
	a.Scale(0.5)
	if a.Data[0] != 55 {
		t.Error("Scale wrong")
	}
}

func TestSoftmaxRowsSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := New(4, 16)
	m.RandNormal(rng, 3)
	SoftmaxRows(m)
	for r := 0; r < 4; r++ {
		var sum float32
		for _, v := range m.Row(r) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value out of [0,1]: %g", v)
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-5) {
			t.Fatalf("softmax row %d sums to %g", r, sum)
		}
	}
}

func TestSoftmaxStableUnderLargeInputs(t *testing.T) {
	m := FromSlice(1, 3, []float32{1e30, 1e30, 1e30})
	SoftmaxRows(m)
	for _, v := range m.Data {
		if !almostEqual(v, 1.0/3, 1e-5) {
			t.Fatalf("softmax of equal huge values should be uniform, got %g", v)
		}
	}
}

func TestLayerNormZeroMeanUnitVar(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := New(3, 32)
	x.RandNormal(rng, 5)
	gamma := make([]float32, 32)
	beta := make([]float32, 32)
	for i := range gamma {
		gamma[i] = 1
	}
	out := LayerNorm(x, gamma, beta, 1e-5)
	for r := 0; r < 3; r++ {
		var mean, varr float32
		for _, v := range out.Row(r) {
			mean += v
		}
		mean /= 32
		for _, v := range out.Row(r) {
			d := v - mean
			varr += d * d
		}
		varr /= 32
		if !almostEqual(mean, 0, 1e-4) || !almostEqual(varr, 1, 1e-2) {
			t.Fatalf("LayerNorm row %d: mean=%g var=%g", r, mean, varr)
		}
	}
}

func TestRMSNormUnitRMS(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	x := New(2, 64)
	x.RandNormal(rng, 4)
	gamma := make([]float32, 64)
	for i := range gamma {
		gamma[i] = 1
	}
	out := RMSNorm(x, gamma, 1e-6)
	for r := 0; r < 2; r++ {
		var ss float32
		for _, v := range out.Row(r) {
			ss += v * v
		}
		rms := float32(math.Sqrt(float64(ss / 64)))
		if !almostEqual(rms, 1, 1e-3) {
			t.Fatalf("RMSNorm row %d rms=%g", r, rms)
		}
	}
}

func TestActivations(t *testing.T) {
	x := FromSlice(1, 4, []float32{-2, -0.5, 0.5, 2})
	r := x.Clone()
	ReLU(r)
	if r.Data[0] != 0 || r.Data[1] != 0 || r.Data[2] != 0.5 || r.Data[3] != 2 {
		t.Error("ReLU wrong")
	}
	g := x.Clone()
	GELU(g)
	if !almostEqual(g.Data[3], 1.954, 5e-3) || g.Data[0] > 0 {
		t.Errorf("GELU wrong: %v", g.Data)
	}
	s := x.Clone()
	SiLU(s)
	if !almostEqual(s.Data[3], 1.7616, 1e-3) || s.Data[0] > 0 {
		t.Errorf("SiLU wrong: %v", s.Data)
	}
}

// Property: ReLU output is always non-negative and idempotent.
func TestReLUProperties(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		m := FromSlice(1, len(vals), append([]float32(nil), vals...))
		ReLU(m)
		once := append([]float32(nil), m.Data...)
		ReLU(m)
		for i, v := range m.Data {
			if !math.IsNaN(float64(v)) && v < 0 {
				return false
			}
			bothNaN := math.IsNaN(float64(v)) && math.IsNaN(float64(once[i]))
			if v != once[i] && !bothNaN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: activation functions reduce the magnitude of extreme negative
// values and do not amplify positives beyond the identity (|act(x)| <= |x|
// + small constant) — the paper's "magnitude reduction" mechanism
// (Take-away #4).
func TestActivationsDampenExtremes(t *testing.T) {
	extreme := float32(60000)
	for _, kind := range []ActivationKind{ActReLU, ActGELU, ActSiLU} {
		neg := FromSlice(1, 1, []float32{-extreme})
		kind.Apply(neg)
		if math.Abs(float64(neg.Data[0])) > 1e-3 {
			t.Errorf("%v(-60000) = %g, expected ~0", kind, neg.Data[0])
		}
		pos := FromSlice(1, 1, []float32{extreme})
		kind.Apply(pos)
		if pos.Data[0] > extreme+1 {
			t.Errorf("%v(60000) amplified to %g", kind, pos.Data[0])
		}
	}
}

func TestActivationKindString(t *testing.T) {
	if ActNone.String() != "none" || ActReLU.String() != "relu" ||
		ActGELU.String() != "gelu" || ActSiLU.String() != "silu" {
		t.Error("ActivationKind String mismatch")
	}
}

func TestRotaryEmbedPositionZeroIsIdentity(t *testing.T) {
	x := FromSlice(1, 4, []float32{1, 2, 3, 4})
	orig := x.Clone()
	rotaryEmbedRef(x, []int{0}, 4, 10000)
	for i := range x.Data {
		if !almostEqual(x.Data[i], orig.Data[i], 1e-6) {
			t.Fatalf("RoPE at position 0 should be identity, got %v", x.Data)
		}
	}
}

func TestRotaryEmbedPreservesNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := New(3, 8)
	x.RandNormal(rng, 1)
	var before float64
	for _, v := range x.Data {
		before += float64(v) * float64(v)
	}
	rotaryEmbedRef(x, []int{5, 9, 100}, 8, 10000)
	var after float64
	for _, v := range x.Data {
		after += float64(v) * float64(v)
	}
	if math.Abs(before-after) > 1e-3*before {
		t.Errorf("RoPE must preserve norm: before=%g after=%g", before, after)
	}
}

func TestQuantizeFP16(t *testing.T) {
	x := FromSlice(1, 3, []float32{1.0000001, 70000, 1e-10})
	x.Quantize(numerics.FP16)
	if x.Data[0] != 1 {
		t.Errorf("quantize should round 1.0000001 to 1, got %g", x.Data[0])
	}
	if !math.IsInf(float64(x.Data[1]), 1) {
		t.Errorf("quantize should overflow 70000 to +Inf, got %g", x.Data[1])
	}
	if x.Data[2] != 0 {
		t.Errorf("quantize should flush 1e-10 to 0, got %g", x.Data[2])
	}
	// FP32 quantize is identity.
	y := FromSlice(1, 1, []float32{1.0000001})
	y.Quantize(numerics.FP32)
	if y.Data[0] != 1.0000001 {
		t.Error("FP32 quantize must be identity")
	}
}

func TestMinMaxSkipsNaN(t *testing.T) {
	x := FromSlice(1, 4, []float32{3, float32(math.NaN()), -5, 2})
	lo, hi := x.MinMax()
	if lo != -5 || hi != 3 {
		t.Errorf("MinMax = (%g,%g), want (-5,3)", lo, hi)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(128, 128)
	y := New(128, 128)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

// BenchmarkDecodeLinears times the linear layers of one m=1 decode step at
// the zoo's shapes (n×k): per block Q, K, V and OUT (96×96) and the MLP —
// FC1 384×96 and FC2 96×384 on OPT and GPT-J, GATE and UP 264×96 and DOWN
// 96×264 on Llama — three blocks, then the 384×96 readout; every matrix
// distinct. "one-model" repeats OPT's 19 (1.47 MB, L2-resident: the
// engine_decode regime), "three-models" rotates OPT's, GPT-J's and Llama's
// (4.4 MB, streamed from L3). ns/elem is per weight.
func BenchmarkDecodeLinears(b *testing.B) {
	rng := rand.New(rand.NewSource(39))
	in, out := map[int]*Tensor{}, map[int]*Tensor{}
	model := func(mlp ...[2]int) (ws []*Tensor, elems int) {
		var shapes [][2]int
		for blk := 0; blk < 3; blk++ {
			shapes = append(append(shapes, [2]int{96, 96}, [2]int{96, 96}, [2]int{96, 96}, [2]int{96, 96}), mlp...)
		}
		for _, s := range append(shapes, [2]int{384, 96}) {
			w := New(s[0], s[1])
			w.RandNormal(rng, 1)
			ws, elems = append(ws, w), elems+len(w.Data)
			if in[s[1]] == nil {
				in[s[1]] = New(1, s[1])
				in[s[1]].RandNormal(rng, 1)
			}
			if out[s[0]] == nil {
				out[s[0]] = New(1, s[0])
			}
		}
		return ws, elems
	}
	opt, optElems := model([2]int{384, 96}, [2]int{96, 384})
	gptj, gptjElems := model([2]int{384, 96}, [2]int{96, 384})
	llama, llamaElems := model([2]int{264, 96}, [2]int{264, 96}, [2]int{96, 264})
	for _, c := range []struct {
		name   string
		models [][]*Tensor
		elems  int // weights per step, averaged over the rotation
	}{
		{"one-model", [][]*Tensor{opt}, optElems},
		{"three-models", [][]*Tensor{opt, gptj, llama}, (optElems + gptjElems + llamaElems) / 3},
	} {
		b.Run(c.name, func(b *testing.B) {
			step := 0
			benchTiers(b, c.elems, func() {
				for _, w := range c.models[step%len(c.models)] {
					MatMulTInto(out[w.Rows], in[w.Cols], w)
				}
				step++
			})
		})
	}
}

func BenchmarkQuantizeFP16(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(64, 256)
	x.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Quantize(numerics.FP16)
	}
}
