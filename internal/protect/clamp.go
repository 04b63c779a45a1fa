package protect

import (
	"math"

	"ft2/internal/tensor"
)

// ClipMode selects what an out-of-bound value is corrected to. The paper's
// Take-away #8: generative LLMs have legitimate large activations, so FT2
// clips to the bound; clipping to zero (the CNN-era default) causes large
// deviations.
type ClipMode int

const (
	// ClipToBound replaces out-of-bound values with the violated bound
	// (FT2's choice).
	ClipToBound ClipMode = iota
	// ClipToZero replaces out-of-bound values with 0 (Ranger-style).
	ClipToZero
)

// String implements fmt.Stringer.
func (c ClipMode) String() string {
	if c == ClipToZero {
		return "clip-to-zero"
	}
	return "clip-to-bound"
}

// CorrectionStats counts the abnormal values a protector corrected; the
// campaign uses it to verify detection coverage and the paper's claim that
// protection fires rarely in fault-free runs.
type CorrectionStats struct {
	OutOfBound int
	NaN        int
}

// Total returns the total number of corrections.
func (s CorrectionStats) Total() int { return s.OutOfBound + s.NaN }

// ClampCorrect applies the fused range-restriction + NaN-correction pass to
// data in place (the reproduction of the paper's fused torch.clamp +
// torch.nan_to_num kernel). correctNaN maps NaN→0 (residual branches recover
// the lost signal); out-of-bound values are corrected per mode. ±Inf counts
// as out-of-bound of finite bounds; against infinite ones the pass corrects
// NaNs alone, all FT2 can do at a site it has no bounds for. Returns the
// correction counts. The loop is the definition; tensor.RangeScreen first
// proves the common case, no NaN and nothing outside b.
func ClampCorrect(data []float32, b Bounds, mode ClipMode, correctNaN bool) CorrectionStats {
	if lo, hi, clean := tensor.RangeScreen(data); clean && lo >= b.Lo && hi <= b.Hi {
		return CorrectionStats{}
	}
	var st CorrectionStats
	for i, v := range data {
		if math.IsNaN(float64(v)) {
			if correctNaN {
				data[i] = 0
				st.NaN++
			}
			continue
		}
		if v < b.Lo {
			if mode == ClipToBound {
				data[i] = b.Lo
			} else {
				data[i] = 0
			}
			st.OutOfBound++
		} else if v > b.Hi {
			if mode == ClipToBound {
				data[i] = b.Hi
			} else {
				data[i] = 0
			}
			st.OutOfBound++
		}
	}
	return st
}
