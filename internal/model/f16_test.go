package model

import (
	"testing"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// EnableF16Weights must round every weight matrix — the embedding, the
// learned positions and each linear — onto the binary16 grid (a model with
// rounded weights can diverge from the unrounded one) and recalibrate the
// teacher stream norm against them.
func TestEnableF16WeightsRoundsAndRecalibrates(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 42, numerics.FP16)
	ws := m.weightTensors()
	listed := map[*tensor.Tensor]bool{}
	for _, w := range ws {
		listed[w] = true
	}
	want := []*tensor.Tensor{m.embed, m.posEmb}
	for b := 0; b < cfg.Blocks; b++ {
		for _, kind := range cfg.Family.LayerKinds() {
			want = append(want, m.Weight(LayerRef{Block: b, Kind: kind}))
		}
	}
	for i, w := range want {
		if w == nil || !listed[w] {
			t.Fatalf("weightTensors misses tensor %d of embedding, positions and the linears", i)
		}
	}
	if len(ws) != len(want) {
		t.Fatalf("weightTensors returns %d tensors, want %d", len(ws), len(want))
	}
	before := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		before[i] = w.Clone()
	}
	m.EnableF16Weights()
	for i, w := range ws {
		rounded := false
		for j, v := range w.Data {
			if numerics.RoundF16(before[i].Data[j]) != v {
				t.Fatalf("tensor %d weight %d not on the binary16 grid after EnableF16Weights", i, j)
			}
			if before[i].Data[j] != v {
				rounded = true
			}
		}
		if !rounded {
			t.Errorf("tensor %d: no weight moved, rounding seems not to have happened", i)
		}
	}
	if m.streamNorm <= 0 {
		t.Error("stream norm not recalibrated")
	}
	if !m.WeightsF16() {
		t.Error("WeightsF16 should report true")
	}
	m.EnableF16Weights() // idempotent
}

// Decode must stay allocation-free with f16 weights.
func TestF16DecodeNoAllocs(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 42, numerics.FP16)
	m.EnableF16Weights()
	tok := m.Prefill([]int{4, 9, 14})
	avg := testing.AllocsPerRun(50, func() { tok = m.DecodeStep(tok) })
	if avg != 0 {
		t.Errorf("f16 decode allocates %.1f allocs/op, want 0", avg)
	}
}
