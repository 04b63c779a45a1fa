package numerics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFaultModelString(t *testing.T) {
	if SingleBit.String() != "1-bit" || DoubleBit.String() != "2-bit" || ExponentBit.String() != "EXP" {
		t.Error("FaultModel String() mismatch")
	}
	if FP16.String() != "fp16" || FP32.String() != "fp32" {
		t.Error("DType String() mismatch")
	}
}

// ParseFaultModel inverts String for every model and rejects other names.
func TestParseFaultModelRoundTrip(t *testing.T) {
	for _, m := range AllFaultModels {
		if got, err := ParseFaultModel(m.String()); err != nil || got != m {
			t.Errorf("ParseFaultModel(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	if got, err := ParseFaultModel("exp"); err != nil || got != ExponentBit {
		t.Errorf(`ParseFaultModel("exp") = %v, %v`, got, err)
	}
	for _, bad := range []string{"", "1bit", "3-bit", "FaultModel(3)"} {
		if _, err := ParseFaultModel(bad); err == nil {
			t.Errorf("ParseFaultModel(%q) accepted", bad)
		}
	}
}

func TestDTypeWidths(t *testing.T) {
	if FP16.Bits() != 16 || FP32.Bits() != 32 {
		t.Error("DType.Bits mismatch")
	}
	if FP16.ExponentBits() != 5 || FP32.ExponentBits() != 8 {
		t.Error("DType.ExponentBits mismatch")
	}
}

func TestPickBitsRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		for _, d := range []DType{FP16, FP32} {
			b := SingleBit.PickBits(d, rng)
			if len(b) != 1 || b[0] < 0 || b[0] >= d.Bits() {
				t.Fatalf("SingleBit pick out of range: %v (dtype %v)", b, d)
			}
			bb := DoubleBit.PickBits(d, rng)
			if len(bb) != 2 || bb[0] == bb[1] {
				t.Fatalf("DoubleBit must pick two distinct bits: %v", bb)
			}
			for _, x := range bb {
				if x < 0 || x >= d.Bits() {
					t.Fatalf("DoubleBit pick out of range: %v", bb)
				}
			}
			eb := ExponentBit.PickBits(d, rng)
			lo := d.Bits() - 1 - d.ExponentBits()
			hi := d.Bits() - 2
			if len(eb) != 1 || eb[0] < lo || eb[0] > hi {
				t.Fatalf("ExponentBit pick outside exponent field [%d,%d]: %v (dtype %v)", lo, hi, eb, d)
			}
		}
	}
}

func TestPickBitsCoversAllPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		seen[SingleBit.PickBits(FP16, rng)[0]] = true
	}
	for b := 0; b < 16; b++ {
		if !seen[b] {
			t.Errorf("SingleBit never picked bit %d in 5000 draws", b)
		}
	}
	seenExp := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		seenExp[ExponentBit.PickBits(FP16, rng)[0]] = true
	}
	for b := 10; b <= 14; b++ {
		if !seenExp[b] {
			t.Errorf("ExponentBit never picked exponent bit %d", b)
		}
	}
}

// Property: flipping the same bits twice is the identity (XOR involution).
func TestFlipBitsInvolution(t *testing.T) {
	f16 := func(h uint16, b0, b1 uint8) bool {
		bits := []int{int(b0 % 16), int(b1 % 16)}
		return FlipBits16(FlipBits16(h, bits), bits) == h
	}
	if err := quick.Check(f16, nil); err != nil {
		t.Error(err)
	}
	f32 := func(w uint32, b0 uint8) bool {
		bits := []int{int(b0 % 32)}
		return FlipBits32(FlipBits32(w, bits), bits) == w
	}
	if err := quick.Check(f32, nil); err != nil {
		t.Error(err)
	}
}

func TestCorruptValueFP32SignBit(t *testing.T) {
	got := CorruptValue(3.5, FP32, []int{31})
	if got != -3.5 {
		t.Errorf("flipping the FP32 sign bit of 3.5 should give -3.5, got %g", got)
	}
}

func TestCorruptValueFP16SignBit(t *testing.T) {
	got := CorruptValue(3.5, FP16, []int{15})
	if got != -3.5 {
		t.Errorf("flipping the FP16 sign bit of 3.5 should give -3.5, got %g", got)
	}
}

func TestCorruptValueExponentBlowupFP16(t *testing.T) {
	// 0.5 has top exponent bit clear; flipping it multiplies by 2^16.
	got := CorruptValue(0.5, FP16, []int{14})
	if got != 32768 {
		t.Errorf("FP16 exponent flip of 0.5: got %g, want 32768", got)
	}
}

func TestCorruptValueMakesNaN(t *testing.T) {
	got := CorruptValue(1.5, FP16, []int{14})
	if !math.IsNaN(float64(got)) {
		t.Errorf("FP16 top-exponent flip of 1.5 should be NaN, got %g", got)
	}
}

// Property: a mantissa-only flip in FP16 changes the value by at most one
// binade (relative error < 2^-1 of the value for normal numbers).
func TestMantissaFlipSmallPerturbation(t *testing.T) {
	f := func(x float32, b uint8) bool {
		v := RoundF16(x)
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) || v == 0 {
			return true
		}
		h := F32ToF16Bits(v)
		if h&f16ExpMask == 0 { // skip subnormals
			return true
		}
		bit := int(b % 10) // mantissa bits only
		c := CorruptValue(v, FP16, []int{bit})
		return float32(math.Abs(float64(c-v))) < float32(math.Abs(float64(v)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: CorruptRandom with fixed seed is deterministic.
func TestCorruptRandomDeterministic(t *testing.T) {
	for _, m := range AllFaultModels {
		r1 := rand.New(rand.NewSource(42))
		r2 := rand.New(rand.NewSource(42))
		for i := 0; i < 100; i++ {
			v := float32(i) * 0.37
			c1, b1 := CorruptRandom(v, FP16, m, r1)
			c2, b2 := CorruptRandom(v, FP16, m, r2)
			if len(b1) != len(b2) {
				t.Fatalf("%v: nondeterministic bit count", m)
			}
			for j := range b1 {
				if b1[j] != b2[j] {
					t.Fatalf("%v: nondeterministic bits %v vs %v", m, b1, b2)
				}
			}
			bothNaN := math.IsNaN(float64(c1)) && math.IsNaN(float64(c2))
			if c1 != c2 && !bothNaN {
				t.Fatalf("%v: nondeterministic values %g vs %g", m, c1, c2)
			}
		}
	}
}

func BenchmarkF32ToF16Bits(b *testing.B) {
	var acc uint16
	for i := 0; i < b.N; i++ {
		acc ^= F32ToF16Bits(float32(i) * 0.001)
	}
	_ = acc
}

func BenchmarkRoundF16(b *testing.B) {
	var acc float32
	for i := 0; i < b.N; i++ {
		acc += RoundF16(float32(i) * 0.001)
	}
	_ = acc
}
