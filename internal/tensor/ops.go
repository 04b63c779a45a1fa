package tensor

import "math"

// Add returns a + b element-wise.
func Add(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: Add shape mismatch")
	}
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: AddInPlace shape mismatch")
	}
	for i, v := range b.Data {
		a.Data[i] += v
	}
	a.MarkMutated()
}

// MulInPlace multiplies a by b element-wise (a *= b).
func MulInPlace(a, b *Tensor) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MulInPlace shape mismatch")
	}
	for i, v := range b.Data {
		a.Data[i] *= v
	}
	a.MarkMutated()
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	ScaleSlice(t.Data, s)
	t.MarkMutated()
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
// NaN inputs propagate to the whole row (as in real attention kernels).
func SoftmaxRows(t *Tensor) {
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		maxv := float32(math.Inf(-1))
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		for i, v := range row {
			e := float32(math.Exp(float64(v - maxv)))
			row[i] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for i := range row {
			row[i] *= inv
		}
	}
	t.MarkMutated()
}

// LayerNorm normalizes each row to zero mean / unit variance then applies
// gamma (scale) and beta (shift). eps guards the variance.
func LayerNorm(x *Tensor, gamma, beta []float32, eps float32) *Tensor {
	return LayerNormInto(New(x.Rows, x.Cols), x, gamma, beta, eps)
}

// LayerNormInto is LayerNorm writing into a preallocated out (same shape as
// x, fully overwritten; must not alias x).
func LayerNormInto(out, x *Tensor, gamma, beta []float32, eps float32) *Tensor {
	if len(gamma) != x.Cols || len(beta) != x.Cols {
		panic("tensor: LayerNorm parameter length mismatch")
	}
	if out.Rows != x.Rows || out.Cols != x.Cols {
		panic("tensor: LayerNormInto output shape mismatch")
	}
	n := float32(x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		var mean float32
		for _, v := range row {
			mean += v
		}
		mean /= n
		var variance float32
		for _, v := range row {
			d := v - mean
			variance += d * d
		}
		variance /= n
		inv := 1 / float32(math.Sqrt(float64(variance+eps)))
		orow := out.Row(r)
		for i, v := range row {
			orow[i] = (v-mean)*inv*gamma[i] + beta[i]
		}
	}
	out.MarkMutated()
	return out
}

// RMSNorm applies root-mean-square normalization per row with a learned
// scale, as used by the Llama/Qwen architecture family.
func RMSNorm(x *Tensor, gamma []float32, eps float32) *Tensor {
	return RMSNormInto(New(x.Rows, x.Cols), x, gamma, eps)
}

// RMSNormInto is RMSNorm writing into a preallocated out (same shape as x,
// fully overwritten; must not alias x).
func RMSNormInto(out, x *Tensor, gamma []float32, eps float32) *Tensor {
	if len(gamma) != x.Cols {
		panic("tensor: RMSNorm parameter length mismatch")
	}
	if out.Rows != x.Rows || out.Cols != x.Cols {
		panic("tensor: RMSNormInto output shape mismatch")
	}
	n := float32(x.Cols)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		var ss float32
		for _, v := range row {
			ss += v * v
		}
		inv := 1 / float32(math.Sqrt(float64(ss/n)+float64(eps)))
		orow := out.Row(r)
		for i, v := range row {
			orow[i] = v * inv * gamma[i]
		}
	}
	out.MarkMutated()
	return out
}
