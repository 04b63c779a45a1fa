package tensor

import (
	"math"
	"math/rand"
	"testing"

	"ft2/internal/numerics"
)

// Property: PackF16 must leave Data exactly at numerics.RoundF16 of the
// original values, and the shadow must decode to Data bit-for-bit — that is
// the contract that keeps fault-site addressing and FT2 bounds unchanged
// under f16 storage.
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
		want := numerics.RoundF16(v)
		got := tt.Data[i]
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("elem %d (%g): Data = %x, RoundF16 = %x", i, v, math.Float32bits(got), math.Float32bits(want))
		}
		dec := numerics.F16BitsToF32(tt.half[i])
		if math.Float32bits(dec) != math.Float32bits(got) {
			t.Fatalf("elem %d (%g): shadow decodes to %x, Data = %x", i, v, math.Float32bits(dec), math.Float32bits(got))
		}
	}
	if !tt.IsPackedF16() {
		t.Error("tensor should report packed after PackF16")
	}
}

// Mutating a packed tensor must invalidate the shadow so kernels fall back
// to the (mutated) f32 master copy instead of streaming stale halves.
func TestPackF16InvalidatedByMutation(t *testing.T) {
	mutations := map[string]func(*Tensor){
		"Set":         func(t *Tensor) { t.Set(0, 1, 3.25) },
		"Fill":        func(t *Tensor) { t.Fill(2) },
		"Zero":        func(t *Tensor) { t.Zero() },
		"Reuse":       func(t *Tensor) { t.Reuse(2, 4) },
		"MarkMutated": func(t *Tensor) { t.Data[0] = 7; t.MarkMutated() },
		"Quantize":    func(t *Tensor) { t.Quantize(numerics.FP16) },
		"ReLU":        ReLU,
		"GELU":        GELU,
		"SiLU":        SiLU,
		"ViewWrite": func(t *Tensor) {
			var v Tensor
			v.BindRowsView(t, 1, 1)
			v.Data[0] = 42
			v.MarkMutated()
		},
	}
	for name, mutate := range mutations {
		tt := New(2, 4)
		tt.Fill(1.5)
		tt.PackF16()
		if !tt.IsPackedF16() {
			t.Fatalf("%s: not packed before mutation", name)
		}
		mutate(tt)
		if tt.IsPackedF16() {
			t.Errorf("%s: shadow still valid after mutation", name)
		}
		if tt.halfData() != nil {
			t.Errorf("%s: halfData still streams after mutation", name)
		}
	}
}

// Clone must carry the shadow; the clone and the original invalidate
// independently.
func TestPackF16CloneIndependent(t *testing.T) {
	a := New(2, 3)
	a.Fill(0.5)
	a.PackF16()
	c := a.Clone()
	if !c.IsPackedF16() {
		t.Fatal("clone lost the packed shadow")
	}
	c.Set(0, 0, 9)
	if c.IsPackedF16() {
		t.Error("clone shadow should be invalid after mutation")
	}
	if !a.IsPackedF16() {
		t.Error("original shadow must survive clone mutation")
	}
}

// SetF16Streaming(false) must park the shadow without dropping it.
func TestSetF16StreamingGate(t *testing.T) {
	tt := New(1, 8)
	tt.Fill(0.25)
	tt.PackF16()
	prev := SetF16Streaming(false)
	defer SetF16Streaming(prev)
	if tt.halfData() != nil {
		t.Error("halfData must be nil while streaming is disabled")
	}
	if !tt.IsPackedF16() {
		t.Error("disabling streaming must not invalidate the shadow")
	}
	SetF16Streaming(true)
	if hasF16C && tt.halfData() == nil {
		t.Error("halfData should stream again once re-enabled")
	}
}

// BindRowsView must re-aim a scratch header at a row range, alias the
// parent's storage, and track the new parent: a write through the view
// invalidates that parent's packed shadow and no longer the old binding's.
func TestBindRowsView(t *testing.T) {
	first, parent := New(2, 5), New(3, 5)
	first.PackF16()
	parent.Fill(1)
	parent.PackF16()
	var scratch Tensor
	scratch.BindRowsView(first, 0, 1)
	scratch.BindRowsView(parent, 1, 2)
	if scratch.Rows != 2 || scratch.Cols != 5 || len(scratch.Data) != 10 {
		t.Fatalf("bound view shape %dx%d len %d", scratch.Rows, scratch.Cols, len(scratch.Data))
	}
	scratch.Data[0] = float32(math.Inf(1))
	scratch.MarkMutated()
	if parent.Data[5] != float32(math.Inf(1)) {
		t.Error("bound view does not alias the parent rows")
	}
	if parent.IsPackedF16() {
		t.Error("parent shadow still valid after a bound-view write")
	}
	if !first.IsPackedF16() {
		t.Error("re-aimed view still invalidates its old parent")
	}
}
