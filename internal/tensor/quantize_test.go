package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ft2/internal/numerics"
)

// TestQuantizeF16VecBitIdentity proves the vectorized in-place f32→f16→f32
// round trip produces exactly the bits numerics.RoundF16 produces, across
// every value class the activation stream can contain: normals across the
// full binary16 range, rounding ties (the RNE half-way cases), subnormal
// halves, underflow-to-zero, overflow-to-Inf, ±Inf, and NaN. The serving
// oracle contract makes any single-bit divergence here a correctness bug,
// not a precision bug.
func TestQuantizeF16VecBitIdentity(t *testing.T) {
	var vals []float32
	// Every binary16 bit pattern expanded to f32 (fixed points of the round
	// trip), plus neighbors one and a few f32 ULPs away to exercise rounding
	// in both directions and the tie cases.
	for h := 0; h < 1<<16; h++ {
		f := numerics.F16BitsToF32(uint16(h))
		b := math.Float32bits(f)
		vals = append(vals, f,
			math.Float32frombits(b+1), math.Float32frombits(b-1),
			math.Float32frombits(b+0x1000), math.Float32frombits(b+0x1001))
	}
	// Specials and boundary magnitudes.
	vals = append(vals,
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.Float32frombits(0x7F800001), // signaling-NaN pattern
		math.Float32frombits(0xFFC00123), // quiet NaN with payload
		65504, 65505, 65519.996, 65520, 131000,
		numerics.F16MinNormal, numerics.F16MinNormal/2, 5.96e-8, 2.98e-8, 1e-45,
	)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1<<20; i++ {
		vals = append(vals, math.Float32frombits(rng.Uint32()))
	}

	got := make([]float32, len(vals))
	copy(got, vals)
	quantizeF16(got) // vector kernel + scalar tail on F16C hosts
	for i, v := range vals {
		want := numerics.RoundF16(v)
		if math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("idx %d: in %08x: got %08x want %08x",
				i, math.Float32bits(v), math.Float32bits(got[i]), math.Float32bits(want))
		}
	}

	// Unaligned lengths: the split between vector body and scalar tail must
	// not depend on where it lands.
	for n := 0; n < 40; n++ {
		in := make([]float32, n)
		for i := range in {
			in[i] = math.Float32frombits(rng.Uint32())
		}
		ref := make([]float32, n)
		for i, v := range in {
			ref[i] = numerics.RoundF16(v)
		}
		quantizeF16(in)
		for i := range in {
			if math.Float32bits(in[i]) != math.Float32bits(ref[i]) {
				t.Fatalf("n=%d idx %d mismatch", n, i)
			}
		}
	}
}

// Property: PackF16 must leave Data exactly at numerics.RoundF16 of the
// original values — f16 weight storage is that rounding and nothing else, so
// fault-site addressing and FT2 bounds see the values the kernels multiply.
func TestPackF16RoundTripsExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vals := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 65504, -65504, 65520, 1e9, -1e9,
		5.9604645e-08, 6.1e-05, 1e-30, float32(math.Inf(1)), float32(math.Inf(-1)),
	}
	for i := 0; i < 2000; i++ {
		vals = append(vals, float32(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4))))
	}
	orig := make([]float32, len(vals))
	copy(orig, vals)
	tt := FromSlice(1, len(vals), vals)
	tt.PackF16()
	for i, v := range orig {
		if got, want := tt.Data[i], numerics.RoundF16(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("elem %d (%g): Data = %x, RoundF16 = %x", i, v, math.Float32bits(got), math.Float32bits(want))
		}
	}
}
