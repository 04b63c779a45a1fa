package abft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ft2/internal/tensor"
)

func randMat(rng *rand.Rand, r, c int) *tensor.Tensor {
	m := tensor.New(r, c)
	m.RandNormal(rng, 1)
	return m
}

func TestCleanMultiplicationPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, b := randMat(rng, 12, 20), randMat(rng, 20, 16)
	c, res, err := CheckedMatMul(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Error("clean multiplication must not trigger detection")
	}
	want := tensor.MatMul(a, b)
	if !c.Equal(want) {
		t.Error("checked product differs from plain product")
	}
}

func TestSingleCorruptionCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 8, 10), randMat(rng, 10, 6)
	want := tensor.MatMul(a, b)
	c, res, err := CheckedMatMul(a, b, func(m *tensor.Tensor) {
		m.Set(3, 4, m.At(3, 4)+1000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || !res.Corrected {
		t.Fatalf("single corruption must be detected and corrected: %+v", res)
	}
	if res.Row != 3 || res.Col != 4 {
		t.Errorf("located (%d,%d), want (3,4)", res.Row, res.Col)
	}
	for i := range want.Data {
		if diff := math.Abs(float64(c.Data[i] - want.Data[i])); diff > 1e-3 {
			t.Fatalf("repaired product wrong at %d: diff %g", i, diff)
		}
	}
}

func TestNaNCorruptionCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMat(rng, 6, 8), randMat(rng, 8, 5)
	c, res, err := CheckedMatMul(a, b, func(m *tensor.Tensor) {
		m.Set(2, 2, float32(math.NaN()))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corrected || res.Row != 2 || res.Col != 2 {
		t.Fatalf("NaN corruption must be located and repaired: %+v", res)
	}
	for i, v := range c.Data {
		if math.IsNaN(float64(v)) {
			t.Errorf("repaired product still contains NaN at %d", i)
		}
	}
}

func TestDoubleCorruptionDetectedNotCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := randMat(rng, 6, 8), randMat(rng, 8, 5)
	_, res, err := CheckedMatMul(a, b, func(m *tensor.Tensor) {
		m.Set(1, 1, 500)
		m.Set(3, 2, -500)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Error("double corruption must be detected")
	}
	if res.Corrected {
		t.Error("two corrupted elements in different rows/cols cannot be single-corrected")
	}
}

func TestShapeMismatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if _, _, err := CheckedMatMul(randMat(rng, 2, 3), randMat(rng, 4, 2), nil); err == nil {
		t.Error("shape mismatch must error")
	}
}

// Property: for random matrices and a random single corruption large enough
// to clear the rounding tolerance, ABFT always detects, locates, and
// repairs.
func TestSingleCorruptionProperty(t *testing.T) {
	f := func(seed int64, ri, ci uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := randMat(rng, 7, 9), randMat(rng, 9, 8)
		i, j := int(ri)%7, int(ci)%8
		_, res, err := CheckedMatMul(a, b, func(m *tensor.Tensor) {
			m.Set(i, j, m.At(i, j)+300)
		})
		if err != nil {
			return false
		}
		return res.Detected && res.Corrected && res.Row == i && res.Col == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: clean products never false-positive across sizes.
func TestNoFalsePositivesProperty(t *testing.T) {
	f := func(seed int64, mr, kr, nr uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+int(mr)%10, 1+int(kr)%10, 1+int(nr)%10
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		_, res, err := CheckedMatMul(a, b, nil)
		return err == nil && !res.Detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCheckedMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randMat(rng, 64, 64), randMat(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CheckedMatMul(x, y, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlainMatMulBaseline(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randMat(rng, 64, 64), randMat(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}
