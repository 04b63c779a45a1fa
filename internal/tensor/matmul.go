package tensor

// MatMul returns a × b (a: m×k, b: k×n) — the plain serial reference
// product abft.CheckedMatMul checks. The engine never calls it (every linear
// layer and the readout are x·Wᵀ, MatMulTInto), so it has no sparse
// shortcut: a zero in a still multiplies, because 0 × NaN and 0 × ±Inf are
// NaN and must propagate.
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic("tensor: MatMul shape mismatch")
	}
	k, n := a.Cols, b.Cols
	out := New(a.Rows, n)
	for i := 0; i < a.Rows; i++ {
		orow := out.Data[i*n : (i+1)*n]
		for kk, av := range a.Data[i*k : (i+1)*k] {
			for j, bv := range b.Data[kk*n : (kk+1)*n] {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// MatMulT returns a × bᵀ (a: m×k, b: n×k). Used for attention scores
// (Q × Kᵀ) and every linear layer (weights stored out×in).
func MatMulT(a, b *Tensor) *Tensor {
	return MatMulTInto(New(a.Rows, b.Rows), a, b)
}

// MatMulTInto computes a × bᵀ into out (a: m×k, b: n×k, out: m×n),
// overwriting every element of out. It allocates nothing, which keeps the
// per-token decode step off the garbage collector; out must not alias a
// or b. Every out element is an independent dot product of an a-row and a
// b-row in the op order of the process's tier (dotVecFMA with hasFMA, Dot
// without), so the 1-row, 4-row-blocked, tiled and f16-streamed forms are
// bit-identical. It runs on the calling goroutine: the engine's parallelism
// is one model replica per core, not a split product (DESIGN.md §12).
func MatMulTInto(out, a, b *Tensor) *Tensor {
	if a.Cols != b.Cols {
		panic("tensor: MatMulT shape mismatch")
	}
	m, k, n := a.Rows, a.Cols, b.Rows
	if out.Rows != m || out.Cols != n {
		panic("tensor: MatMulTInto output shape mismatch")
	}
	if m == 0 || k == 0 || n == 0 {
		out.Zero() // empty sums; the kernels assume positive dimensions
		return out
	}
	matMulTRows(out, a, b, 0, m)
	return out
}

// matMulTRows computes rows [lo,hi) of out = a×bᵀ on the tier in effect:
// an FMA host through the column sweeps, which take rows in groups of four
// so each weight row is streamed once per group, and a host without FMA
// element by element with Dot. Op order per element is the tier's either
// way, so blocking is invisible in the results.
func matMulTRows(out, a, b *Tensor, lo, hi int) {
	k, n := a.Cols, b.Rows
	if hasFMA {
		// From 8 rows on, 32 columns of b (≤ ~12-16 KiB at the zoo's
		// widths: inside L1 with the activation rows) are streamed from the
		// outer cache once and reused by every row group; below that the
		// whole width is one block.
		colBlock := n
		if hi-lo >= 8 {
			colBlock = 32
		}
		matMulTTiled(out, a, b, lo, hi, colBlock)
		return
	}
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		orow := out.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			orow[j] = Dot(arow, b.Data[j*k:(j+1)*k])
		}
	}
}

// matMulTTiled is the FMA-tier sweep over rows [lo,hi) with the columns of
// b taken colBlock at a time — the shape the fused mixed-phase batch
// produces (many activation rows against one weight matrix). Each output
// element is still an independent dotVecFMA of the same two vectors, so
// tiling changes only the traversal order, never a result bit.
func matMulTTiled(out, a, b *Tensor, lo, hi, colBlock int) {
	k, n := a.Cols, b.Rows
	for j0 := 0; j0 < n; j0 += colBlock {
		jn := n - j0
		if jn > colBlock {
			jn = colBlock
		}
		blk := b.Data[j0*k : (j0+jn)*k]
		i := lo
		for ; i+4 <= hi; i += 4 {
			matMulTSweep4(out.Data[i*n+j0:], n, a.Data[i*k:(i+4)*k], k, blk, k, jn)
		}
		for ; i < hi; i++ {
			matMulTSweep1(out.Data[i*n+j0:i*n+j0+jn], a.Data[i*k:(i+1)*k], blk, k, jn)
		}
	}
}

// Linear computes x × wᵀ + bias, the canonical nn.Linear forward pass
// (w: out×in stored row-major like PyTorch, bias: len out or nil).
func Linear(x, w *Tensor, bias []float32) *Tensor {
	return LinearInto(New(x.Rows, w.Rows), x, w, bias)
}

// LinearInto computes x × wᵀ + bias into out without allocating; out must
// be x.Rows × w.Rows and must not alias x or w.
func LinearInto(out, x, w *Tensor, bias []float32) *Tensor {
	MatMulTInto(out, x, w)
	if bias != nil {
		if len(bias) != out.Cols {
			panic("tensor: Linear bias length mismatch")
		}
		for i := 0; i < out.Rows; i++ {
			row := out.Row(i)
			for j, bv := range bias {
				row[j] += bv
			}
		}
	}
	return out
}

// CostModel, DefaultCostModel and SetCostModel are what is left of the
// kernel cost model that once chose between serial and pooled products:
// every product is serial now, so they plan nothing and SetCostModel does
// nothing. bench/main.go still calls SetCostModel(DefaultCostModel()), and
// bench/ changes only in ROADMAP item 7a, which deletes these three names
// together with that call.
type CostModel struct{}

func DefaultCostModel() *CostModel { return &CostModel{} }

func SetCostModel(*CostModel) {}
