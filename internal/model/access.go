package model

import (
	"fmt"
	"math"

	"ft2/internal/tensor"
)

// Raw-state accessors for the fault-injection and chaos subsystems. They
// expose the weight matrices and KV slabs for controlled mutation — callers
// own the synchronization (the chaos engine only mutates at scheduler slice
// boundaries, when no kernel is running on the replica).

// Weight returns the weight matrix of the referenced linear layer (out×in,
// PyTorch layout). It panics when the layer is absent from the family or the
// block index is out of range — weight-fault planning is programmer-controlled.
func (m *Model) Weight(ref LayerRef) *tensor.Tensor {
	if ref.Block < 0 || ref.Block >= len(m.blocks) {
		panic(fmt.Sprintf("model: Weight block %d out of range", ref.Block))
	}
	l := m.linearByRef(ref)
	if l.w == nil {
		panic(fmt.Sprintf("model: layer %v not present in family %v", ref, m.Cfg.Family))
	}
	return l.w
}

// Bias returns the bias vector of the referenced linear layer, or nil when
// the layer (or family) has none. The returned slice is the live parameter —
// callers must treat it as read-only.
func (m *Model) Bias(ref LayerRef) []float32 {
	if ref.Block < 0 || ref.Block >= len(m.blocks) {
		panic(fmt.Sprintf("model: Bias block %d out of range", ref.Block))
	}
	return m.linearByRef(ref).b
}

// State returns the active generation state (nil when none is attached).
// Fault injectors use it to reach the KV slabs of the generation currently
// executing on this model.
func (m *Model) State() *DecodeState { return m.st }

// Step returns the generation step the state last executed (0 = prefill).
func (st *DecodeState) Step() int { return st.step }

// PromptLen returns the prompt length of the live generation (0 when not
// started).
func (st *DecodeState) PromptLen() int { return st.promptLen }

// KVSlabs exposes one block's raw key/value slabs plus the number of
// positions filled and the pitch, the positions per head the slabs hold. The
// layout is head-blocked: element (head h, position p, channel c) lives at
// (h*pitch+p)*headDim + c. Callers mutating the slabs must do so only while
// no forward pass is running on the owning model.
func (st *DecodeState) KVSlabs(block int) (k, v []float32, rows, pitch int) {
	c := &st.kv[block]
	return c.k, c.v, c.rows, st.pitch
}

// WeightChecksum returns a deterministic FNV-1a style hash over the raw bits
// of every streamed weight matrix. Replicas of the same (cfg, seed, dtype)
// model hash identically, so a build-time checksum compared against a later
// scrub detects any persistent weight corruption — a single flipped bit
// changes the sum.
func (m *Model) WeightChecksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	sum := uint64(offset64)
	for _, w := range m.weightTensors() {
		for _, v := range w.Data {
			sum ^= uint64(math.Float32bits(v))
			sum *= prime64
		}
	}
	return sum
}
