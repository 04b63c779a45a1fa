package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: Dot agrees with the naive summation within float tolerance.
func TestDotMatchesNaive(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := 1 + int(nRaw)%64
		rng := rand.New(rand.NewSource(seed))
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			b[i] = float32(rng.NormFloat64())
		}
		var naive float64
		for i := range a {
			naive += float64(a[i]) * float64(b[i])
		}
		got := float64(Dot(a, b))
		return math.Abs(got-naive) <= 1e-3*(1+math.Abs(naive))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MatMul distributes over addition: A(B+C) = AB + AC (within
// float tolerance).
func TestMatMulDistributive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(5, 7)
		b := New(7, 4)
		c := New(7, 4)
		a.RandNormal(rng, 1)
		b.RandNormal(rng, 1)
		c.RandNormal(rng, 1)
		left := MatMul(a, Add(b, c))
		right := Add(MatMul(a, b), MatMul(a, c))
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: Linear with a zero weight matrix returns the bias broadcast.
func TestLinearZeroWeights(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x := New(3, 6)
			x.RandNormal(rng, 2)
			w := New(4, 6) // zeros
			bias := []float32{1, -2, 3, -4}
			out := Linear(x, w, bias)
			for r := 0; r < 3; r++ {
				for j, bv := range bias {
					if out.At(r, j) != bv {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Error(err)
		}
	})
}

// Property: softmax is invariant to a constant shift of the row.
func TestSoftmaxShiftInvariant(t *testing.T) {
	f := func(seed int64, shift float32) bool {
		if math.IsNaN(float64(shift)) || math.IsInf(float64(shift), 0) || shift > 20 || shift < -20 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		a := New(1, 12)
		a.RandNormal(rng, 2)
		b := a.Clone()
		for i := range b.Data {
			b.Data[i] += shift
		}
		SoftmaxRows(a)
		SoftmaxRows(b)
		for i := range a.Data {
			if math.Abs(float64(a.Data[i]-b.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: LayerNorm output is invariant to input scaling (gamma=1,
// beta=0): LN(c·x) == LN(x) for c > 0.
func TestLayerNormScaleInvariant(t *testing.T) {
	f := func(seed int64, cRaw uint8) bool {
		c := 0.5 + float32(cRaw)/16
		rng := rand.New(rand.NewSource(seed))
		x := New(1, 24)
		x.RandNormal(rng, 3)
		gamma := make([]float32, 24)
		beta := make([]float32, 24)
		for i := range gamma {
			gamma[i] = 1
		}
		scaled := x.Clone()
		scaled.Scale(c)
		a := LayerNorm(x, gamma, beta, 1e-6)
		b := LayerNorm(scaled, gamma, beta, 1e-6)
		for i := range a.Data {
			if math.Abs(float64(a.Data[i]-b.Data[i])) > 1e-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: RMSNorm of a one-hot row has the full RMS magnitude in the hot
// channel (√n) — the "state wipe" behaviour extreme corruption causes.
func TestRMSNormOneHot(t *testing.T) {
	n := 16
	x := New(1, n)
	x.Set(0, 7, 30000)
	gamma := make([]float32, n)
	for i := range gamma {
		gamma[i] = 1
	}
	out := RMSNorm(x, gamma, 1e-6)
	want := float32(math.Sqrt(float64(n)))
	if math.Abs(float64(out.At(0, 7)-want)) > 1e-2 {
		t.Errorf("hot channel = %g, want %g", out.At(0, 7), want)
	}
	for j := 0; j < n; j++ {
		if j != 7 && out.At(0, j) != 0 {
			t.Errorf("cold channel %d = %g, want 0", j, out.At(0, j))
		}
	}
}

// Property: RotaryEmbed of the same vector at two positions preserves the
// pairwise dot product structure (relative position property): the dot of
// q@p1 with k@p2 depends only on p1-p2.
func TestRotaryRelativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dim := 8
	q := New(1, dim)
	k := New(1, dim)
	q.RandNormal(rng, 1)
	k.RandNormal(rng, 1)

	rot := func(v *Tensor, pos int) *Tensor {
		c := v.Clone()
		RotaryEmbed(c, []int{pos}, dim, 10000)
		return c
	}
	dotAt := func(p1, p2 int) float64 {
		return float64(Dot(rot(q, p1).Row(0), rot(k, p2).Row(0)))
	}
	if diff := dotAt(5, 3) - dotAt(12, 10); math.Abs(diff) > 1e-3 {
		t.Errorf("RoPE must depend only on relative positions: %g", diff)
	}
	if diff := dotAt(0, 0) - dotAt(100, 100); math.Abs(diff) > 1e-3 {
		t.Errorf("equal positions must match at any offset: %g", diff)
	}
}
