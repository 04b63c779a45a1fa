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

// SoftmaxRow is the one softmax in the tree — attention's (row, head) scores,
// SoftmaxRows and the benchmark's tensor.softmax_ns all run it. It replaces
// row[j] by float32(exp(float64(row[j] − max))) in place and returns their
// float32 sum accumulated in index order; the caller normalises, under its own
// rule for a zero or NaN sum.
func SoftmaxRow(row []float32) float32 {
	_, maxv, ok := RangeScreen(row)
	if !ok {
		// A NaN in the row (or no screen kernel): the maximum over the other
		// scores, −Inf when there are none — s > maxv is false for a NaN s.
		// Either route may return a zero maximum of either sign, harmlessly:
		// s − (±0) differs at most in the sign of a zero, and exp(±0) = 1.
		maxv = float32(math.Inf(-1))
		for _, s := range row {
			if s > maxv {
				maxv = s
			}
		}
	}
	return expSum(row, maxv)
}

// expSum is SoftmaxRow's exp pass. The scalar loop is the definition; on the
// FMA tier the packed kernel (expSumVec, archExp's own instruction sequence
// four lanes wide) takes every group of four inside its range screen and
// leaves the group that stopped it, and the tail, to the loop — so every
// element is what math.Exp returns on this host, on every tier.
func expSum(row []float32, maxv float32) (sum float32) {
	for i := 0; i < len(row); {
		if hasFMA && len(row)-i >= 4 {
			var done int
			done, sum = expSumVec(&row[i], len(row)-i, maxv, sum)
			i += done
		}
		for end := min(i+4, len(row)); i < end; i++ {
			e := float32(math.Exp(float64(row[i] - maxv)))
			row[i] = e
			sum += e
		}
	}
	return sum
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
// NaN inputs propagate to the whole row (as in real attention kernels): only
// an exactly zero sum leaves a row unnormalised. The engine's attention is
// stricter — it normalises and accumulates context only when sum > 0, so a
// NaN sum leaves that context row zero — and the campaigns' SDC counts depend
// on that guard.
func SoftmaxRows(t *Tensor) {
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		if sum := SoftmaxRow(row); sum != 0 {
			ScaleSlice(row, 1/sum)
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
