package tensor

import "testing"

// tierLeg is one setting of the kernel gates a host can run.
type tierLeg struct {
	name              string
	fma, f16c, avx512 bool
}

// tierLegs are the legs this host can run, its own first: on an AVX-512 host
// the FMA tier again with the ZMM sweep off ("fma-ymm", what an FMA host
// without AVX-512F runs), and on an FMA host the SSE tier a host without FMA
// runs ("sse") — so one machine executes every amd64 body and both summation
// orders.
func tierLegs() []tierLeg {
	legs := []tierLeg{{"host", hasFMA, hasF16C, hasAVX512}}
	if hasAVX512 {
		legs = append(legs, tierLeg{"fma-ymm", true, hasF16C, false})
	}
	if hasFMA {
		legs = append(legs, tierLeg{"sse", false, false, false})
	}
	return legs
}

// hostAVX512 is the host's own hasAVX512, whatever leg is in effect.
var hostAVX512 = hasAVX512

// sweepsAllFloats reports whether an exhaustive kernel check sweeps every
// float32 on the leg in effect: without -short, on the FMA tier, and on one
// leg only — fma-ymm runs the same packed exp and GELU as host.
func sweepsAllFloats() bool {
	return !testing.Short() && hasFMA && hasAVX512 == hostAVX512
}

// run calls f with the gates set to the leg's and restores them after. The
// gates are process-wide: callers must not run in parallel.
func (l tierLeg) run(f func()) {
	fma, f16c, avx512 := hasFMA, hasF16C, hasAVX512
	hasFMA, hasF16C, hasAVX512 = l.fma, l.f16c, l.avx512
	defer func() { hasFMA, hasF16C, hasAVX512 = fma, f16c, avx512 }()
	f()
}

// forEachTier runs f as a subtest on every leg of tierLegs.
func forEachTier(t *testing.T, f func(t *testing.T)) {
	for _, leg := range tierLegs() {
		leg.run(func() { t.Run(leg.name, f) })
	}
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
