package tensor

import "testing"

// forEachTier runs f on the host's kernel tier and, where that is the FMA
// tier, once more with hasFMA and hasF16C switched off — the SSE tier a host
// without FMA runs — so one machine exercises both amd64 summation orders.
// The tier is process-wide: tests using this must not run in parallel.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	t.Run("host", f)
	if hasFMA {
		onSSETier(func() { t.Run("sse", f) })
	}
}

// onSSETier runs f with hasFMA and hasF16C switched off.
func onSSETier(f func()) {
	fma, f16c := hasFMA, hasF16C
	hasFMA, hasF16C = false, false
	defer func() { hasFMA, hasF16C = fma, f16c }()
	f()
}

// dotFMA is the one-element FMA kernel, set by dot_amd64_test.go; nil on
// architectures without the tier.
var dotFMA func(a, b []float32) float32

// dotRef is the one-element definition of a linear layer's op order on the
// tier in effect: every MatMulT path must match it bit for bit.
func dotRef(a, b []float32) float32 {
	if hasFMA {
		return dotFMA(a, b)
	}
	return Dot(a, b)
}
