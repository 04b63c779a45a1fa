package model

import (
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// f16 weights are a rounding. EnableF16Weights rounds every weight matrix
// onto the binary16 grid — the same numerics.RoundF16 gate the activations
// pass through — and keeps it in float32: the kernels multiply exactly the
// values an FP16 model stores, and fault-site addressing, profiled FT2
// bounds and every other consumer of Data see those same values. There is
// no packed binary16 copy: streaming one measured slower than the rounded
// float32 on every shape (DESIGN.md §12).

// EnableF16Weights rounds the model's weight matrices (token embedding,
// learned positions, and every linear) onto the binary16 grid. Biases and
// norm parameters stay float32 — they are O(width) per layer.
//
// Rounding the weights changes the model: it is a different (quantized)
// parameterization, so the sane-stream-norm teacher calibration is re-run
// against the rounded weights and any existing generation state is reset.
// Call it right after New, before sessions, hooks, or snapshots exist;
// it panics if hooks are registered (the calibration probe would fire
// them). Idempotent.
func (m *Model) EnableF16Weights() {
	if m.weightsF16 {
		return
	}
	if len(m.hooks) > 0 {
		panic("model: EnableF16Weights after hooks were registered")
	}
	for _, w := range m.weightTensors() {
		w.Quantize(numerics.FP16)
	}
	m.weightsF16 = true
	m.calibrateStreamNorm()
}

// WeightsF16 reports whether EnableF16Weights has run.
func (m *Model) WeightsF16() bool { return m.weightsF16 }

// weightTensors enumerates every weight matrix.
func (m *Model) weightTensors() []*tensor.Tensor {
	ws := []*tensor.Tensor{m.embed}
	if m.posEmb != nil {
		ws = append(ws, m.posEmb)
	}
	for _, blk := range m.blocks {
		for _, l := range []linear{
			blk.kProj, blk.qProj, blk.vProj, blk.outProj,
			blk.fc1, blk.fc2,
			blk.gateProj, blk.upProj, blk.downProj,
		} {
			if l.w != nil {
				ws = append(ws, l.w)
			}
		}
	}
	return ws
}

// calibrateStreamNorm measures the sane residual-stream norm on a fixed
// probe sequence and installs it as the teacher injection scale. The
// teacher must be disabled during the probe (streamNorm = 0 sends forward
// down the plain readout path); New calls this with streamNorm still zero,
// EnableF16Weights re-runs it against the rounded weights.
func (m *Model) calibrateStreamNorm() {
	const firstRealToken = 4
	m.streamNorm = 0
	probe := make([]int, 8)
	for i := range probe {
		probe[i] = firstRealToken + (i*37)%(m.Cfg.Vocab-firstRealToken)
	}
	m.Generate(probe, 4)
	m.streamNorm = m.st.lastStreamNorm
	m.resetState()
}
