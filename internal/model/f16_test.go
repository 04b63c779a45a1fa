package model

import (
	"testing"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// The f16 storage contract: streaming the packed shadows must be invisible.
// Both sides of every comparison run over the same EnableF16Weights model
// (identically rounded weights); one side streams the packed f16 shadows
// (on F16C hosts), the other reads the f32 master copy. On hosts without
// the F16C tier both sides read f32 and the tests pin that the toggle is
// inert.

func withF16Streaming(t *testing.T, on bool, f func()) {
	t.Helper()
	prev := tensor.SetF16Streaming(on)
	defer tensor.SetF16Streaming(prev)
	f()
}

// Serial decode, every family: f16-streamed generation must be bit-identical
// to f32 generation over the same rounded weights.
func TestF16StreamedDecodeBitIdenticalSerial(t *testing.T) {
	prompt := []int{4, 9, 14, 19, 24}
	const gen = 12
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)

			var f32Toks, f16Toks []int
			withF16Streaming(t, false, func() {
				m := MustNew(cfg, 42, numerics.FP16)
				m.EnableF16Weights()
				f32Toks = m.Generate(prompt, gen)
			})
			withF16Streaming(t, true, func() {
				m := MustNew(cfg, 42, numerics.FP16)
				m.EnableF16Weights()
				f16Toks = m.Generate(prompt, gen)
			})
			for i := range f32Toks {
				if f32Toks[i] != f16Toks[i] {
					t.Fatalf("token %d: f32 %v vs f16-streamed %v", i, f32Toks, f16Toks)
				}
			}
		})
	}
}

// Batched decode, every family: f16-streamed ForwardBatch must match the
// f32 serial oracle token-for-token.
func TestF16StreamedDecodeBitIdenticalBatched(t *testing.T) {
	const gen = 8
	prompts := [][]int{{5, 9, 13}, {7}, {4, 6, 8, 10, 12}}
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)

			want := make([][]int, len(prompts))
			withF16Streaming(t, false, func() {
				oracle := MustNew(cfg, 11, numerics.FP16)
				oracle.EnableF16Weights()
				for i, p := range prompts {
					want[i] = oracle.Generate(p, gen)
				}
			})

			withF16Streaming(t, true, func() {
				m := MustNew(cfg, 11, numerics.FP16)
				m.EnableF16Weights()
				items := make([]BatchItem, len(prompts))
				got := make([][]int, len(prompts))
				for i, p := range prompts {
					it, tok := prefillSession(m, p)
					items[i] = it
					got[i] = append(got[i], tok)
				}
				var toks []int
				for step := 1; step < gen; step++ {
					toks = m.ForwardBatch(items, toks[:0])
					for i, tok := range toks {
						got[i] = append(got[i], tok)
						items[i].Tok = tok
					}
				}
				for i := range prompts {
					for j := range got[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("session %d token %d: batched f16 %v vs serial f32 %v", i, j, got[i], want[i])
						}
					}
				}
			})
		})
	}
}

// EnableF16Weights must actually round the weights (a model with rounded
// weights can diverge from the unrounded one) and recalibrate the teacher
// stream norm against them.
func TestEnableF16WeightsRoundsAndRecalibrates(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 42, numerics.FP16)
	w := m.blocks[0].fc1.w
	before := w.Clone()
	m.EnableF16Weights()
	rounded := false
	for i, v := range w.Data {
		if numerics.RoundF16(before.Data[i]) != v {
			t.Fatalf("weight %d not on the binary16 grid after EnableF16Weights", i)
		}
		if before.Data[i] != v {
			rounded = true
		}
	}
	if !rounded {
		t.Error("no weight moved: rounding seems not to have happened")
	}
	if m.streamNorm <= 0 {
		t.Error("stream norm not recalibrated")
	}
	if !m.WeightsF16() {
		t.Error("WeightsF16 should report true")
	}
	m.EnableF16Weights() // idempotent
}

// Decode must stay allocation-free with f16 streaming enabled.
func TestF16DecodeNoAllocs(t *testing.T) {
	if !tensor.F16StreamingAvailable() {
		t.Skip("no F16C tier on this host")
	}
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 42, numerics.FP16)
	m.EnableF16Weights()
	tok := m.Prefill([]int{4, 9, 14})
	avg := testing.AllocsPerRun(50, func() { tok = m.DecodeStep(tok) })
	if avg != 0 {
		t.Errorf("f16 decode allocates %.1f allocs/op, want 0", avg)
	}
}
