// Package tensor provides the dense numeric kernels of the FT2 reproduction:
// row-major float32 matrices with parallel blocked matrix multiplication,
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
	"sync/atomic"

	"ft2/internal/numerics"
)

// Tensor is a row-major dense matrix of float32 values. Rank is 1 or 2:
// vectors are represented as 1×n matrices.
type Tensor struct {
	Rows, Cols int
	Data       []float32

	// half is the packed binary16 shadow built by PackF16 (pack.go); halfOK
	// is 1 while the shadow matches Data and 0 after any mutation. Mutating
	// methods reset it; code that writes through Data or Row directly must
	// call MarkMutated. Atomic because replicas share read-only weight
	// tensors across serving goroutines.
	half   []uint16
	halfOK atomic.Uint32

	// base points at the tensor a view was carved from (BindRowsView).
	// MarkMutated on the view propagates to base, so the parent's shadow can
	// never go stale through a view write.
	base *Tensor
}

// MarkMutated invalidates the packed-f16 shadow after the contents were
// changed through Data, Row, or any other direct-slice write. The mutating
// methods on Tensor call it themselves; writes through a tracked view
// propagate to the parent.
func (t *Tensor) MarkMutated() {
	if t.half != nil {
		t.halfOK.Store(0)
	}
	if t.base != nil {
		t.base.MarkMutated()
	}
}

// BindRowsView re-aims view (typically a reusable scratch header) at the
// row range [lo, lo+rows) of t without allocating — how the fused
// mixed-phase forward hands an item's row slice to its hooks. Any shadow
// carried by the old binding is dropped and mutations through the view now
// invalidate t.
func (view *Tensor) BindRowsView(t *Tensor, lo, rows int) *Tensor {
	view.Rows, view.Cols = rows, t.Cols
	view.Data = t.Data[lo*t.Cols : (lo+rows)*t.Cols]
	view.half, view.base = nil, t
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

// Clone returns a deep copy (including any packed-f16 shadow). The clone is
// standalone: it never aliases t and is not a tracked view even when t was
// one.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Rows, t.Cols)
	copy(c.Data, t.Data)
	if t.half != nil {
		c.half = make([]uint16, len(t.half))
		copy(c.half, t.half)
		c.halfOK.Store(t.halfOK.Load())
	}
	return c
}

// At returns the element at (r, c).
func (t *Tensor) At(r, c int) float32 { return t.Data[r*t.Cols+c] }

// Set stores v at (r, c).
func (t *Tensor) Set(r, c int, v float32) {
	t.Data[r*t.Cols+c] = v
	t.MarkMutated()
}

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
	t.MarkMutated()
	return t
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
	t.MarkMutated()
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
	t.MarkMutated()
}

// RandNormal fills the tensor with N(0, std²) draws from rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	t.MarkMutated()
}

// Quantize rounds every element through the given dtype's storage format.
// For FP16 this is the precision gate the paper's FP16 models pass every
// activation through; for FP32 it is the identity.
func (t *Tensor) Quantize(d numerics.DType) {
	if d != numerics.FP16 {
		return
	}
	quantizeF16(t.Data)
	t.MarkMutated()
}

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
