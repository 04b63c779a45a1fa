package model

import (
	"math"
	"testing"

	"ft2/internal/numerics"
)

// TestKVCacheEquivalenceBitwise pins the contiguous-slab KV cache to the
// from-scratch reference: for every family, every decode step's logits must
// be bit-identical to a full-sequence forward pass over the tokens generated
// so far. Prefill and decode share the same kernels, so any divergence here
// means the cache layout or the incremental attention walk is wrong.
func TestKVCacheEquivalenceBitwise(t *testing.T) {
	const genTokens = 12
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			m := MustNew(cfg, 7, numerics.FP16)
			prompt := []int{3, 14, 15, 9, 2, 6}

			// Cached run: one prefill, then incremental single-token steps.
			got := m.Generate(prompt, genTokens)

			// Record the cached-path logits per step by replaying the same
			// generation step by step.
			cachedLogits := make([][]float32, 0, genTokens)
			tok := m.Prefill(prompt)
			cachedLogits = append(cachedLogits, append([]float32(nil), m.ReadoutLogits()...))
			for s := 1; s < genTokens; s++ {
				tok = m.DecodeStep(tok)
				cachedLogits = append(cachedLogits, append([]float32(nil), m.ReadoutLogits()...))
			}

			// Reference: rebuild every step from scratch as one full-sequence
			// prefill over prompt + generated prefix, no cache reuse.
			seq := append([]int(nil), prompt...)
			for s := 0; s < genTokens; s++ {
				refTok := m.Prefill(seq)
				ref := m.ReadoutLogits()
				for j, rv := range ref {
					cv := cachedLogits[s][j]
					if math.Float32bits(rv) != math.Float32bits(cv) {
						t.Fatalf("%v step %d logit %d: cached %g (%#08x) != fresh %g (%#08x)",
							f, s, j, cv, math.Float32bits(cv), rv, math.Float32bits(rv))
					}
				}
				if refTok != got[s] {
					t.Fatalf("%v step %d: cached token %d != fresh token %d", f, s, got[s], refTok)
				}
				seq = append(seq, refTok)
			}
		})
	}
}

// TestGenerateAllocFree asserts the decode hot path's core guarantee: after
// construction and a warm-up generation, further generations perform (almost)
// no heap allocation — only the returned token slice.
func TestGenerateAllocFree(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	m := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4}
	m.Generate(prompt, 8) // warm up: lazily built scratch, rope table, KV slabs

	avg := testing.AllocsPerRun(10, func() {
		m.Generate(prompt, 8)
	})
	// One allocation: the out []int result slice.
	if avg > 1 {
		t.Fatalf("Generate allocates %.1f objects/run after warm-up, want <= 1", avg)
	}
}
