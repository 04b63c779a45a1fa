// Package tensor provides the dense numeric kernels of the FT2 reproduction:
// row-major float32 matrices with serial blocked matrix multiplication,
// the normalization and activation functions used by the transformer engine,
// and a binary16 precision gate that mirrors FP16 storage on GPUs.
//
// Tensors are deliberately simple — a shape plus a flat float32 buffer — so
// that the fault injector and the protection layer can address individual
// neurons by flat index exactly the way the paper addresses fault sites
// (layer ID, neuron ID, bit position).
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"ft2/internal/numerics"
)

// Tensor is a row-major dense matrix of float32 values. Rank is 1 or 2:
// vectors are represented as 1×n matrices.
type Tensor struct {
	Rows, Cols int
	Data       []float32
}

// BindRowsView re-aims view (typically a reusable scratch header) at the
// row range [lo, lo+rows) of t without allocating — how the fused
// mixed-phase forward hands an item's row slice to its hooks. The view
// aliases t's storage.
func (view *Tensor) BindRowsView(t *Tensor, lo, rows int) *Tensor {
	view.Rows, view.Cols = rows, t.Cols
	view.Data = t.Data[lo*t.Cols : (lo+rows)*t.Cols]
	return view
}

// New allocates a zeroed rows×cols tensor.
func New(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols tensor.
func FromSlice(rows, cols int, data []float32) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %d×%d", len(data), rows, cols))
	}
	return &Tensor{Rows: rows, Cols: cols, Data: data}
}

// Clone returns a deep copy that never aliases t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	return c
}

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float32 { return t.Data[r*t.Cols+c] }

// Set stores v at (r, c).
func (t *Tensor) Set(r, c int, v float32) { t.Data[r*t.Cols+c] = v }

// Row returns the r-th row as a slice aliasing the tensor's storage.
func (t *Tensor) Row(r int) []float32 { return t.Data[r*t.Cols : (r+1)*t.Cols] }

// Reuse reshapes t to rows×cols, reusing the backing array when its
// capacity suffices and reallocating otherwise. The contents are undefined
// afterwards (callers overwrite or Zero them). This is the scratch-arena
// primitive: a buffer sized once at model construction is Reused every
// decode step without touching the allocator.
func (t *Tensor) Reuse(rows, cols int) *Tensor {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", rows, cols))
	}
	n := rows * cols
	if cap(t.Data) < n {
		t.Data = make([]float32, n)
	} else {
		t.Data = t.Data[:n]
	}
	t.Rows, t.Cols = rows, cols
	return t
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// RandNormal fills the tensor with N(0, std²) draws from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// Quantize rounds every element through the given dtype's storage format.
// For FP16 this is the precision gate the paper's FP16 models pass every
// activation through, and the whole of f16 weight storage
// (model.EnableF16Weights); for FP32 it is the identity.
func (t *Tensor) Quantize(d numerics.DType) {
	if d != numerics.FP16 {
		return
	}
	quantizeF16(t.Data)
}

// PackF16, F16StreamingAvailable and MarkMutated are what is left of the
// packed-f16 weight shadow, which streaming measured slower than the rounded
// f32 copy (DESIGN.md §12): PackF16 is Quantize(FP16), F16StreamingAvailable
// reports the F16C round-trip kernel, and MarkMutated does nothing.
// bench/layers.go and bench/main.go still call them, and bench/ changes only
// in ROADMAP item 7a, which deletes these three names together with those
// calls.
func (t *Tensor) PackF16() { t.Quantize(numerics.FP16) }

func F16StreamingAvailable() bool { return hasF16C }

func (t *Tensor) MarkMutated() {}

// MinMax returns the smallest and largest finite elements. NaNs are skipped;
// if every element is NaN it returns (0, 0).
func (t *Tensor) MinMax() (lo, hi float32) {
	first := true
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) {
			continue
		}
		if first {
			lo, hi = v, v
			first = false
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Equal reports exact element-wise equality of shape and contents.
func (t *Tensor) Equal(o *Tensor) bool {
	if t.Rows != o.Rows || t.Cols != o.Cols {
		return false
	}
	for i, v := range t.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%d×%d)", t.Rows, t.Cols)
}
