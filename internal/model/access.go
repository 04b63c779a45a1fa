package model

import (
	"math"

	"ft2/internal/tensor"
)

// Raw-state accessors for the fault-injection and chaos subsystems. They
// expose the weight matrices and KV slabs — ReadWeight and KVOwn for
// reading, Weight and KVSlabs for controlled mutation. Both mutation paths
// are copy-on-write: a context's matrices are its weight set's, shared with
// every replica, until Weight copies one in, and a state's borrowed KV
// prefix is the prefix cache's until KVSlabs copies it in. Callers own the
// synchronization (the chaos engine only mutates at scheduler slice
// boundaries, when no kernel is running on the replica).

// Weight returns the weight matrix of the referenced linear layer (out×in,
// PyTorch layout) for writing. The first call for a matrix the context
// still shares copies it into the context: writes reach this context only,
// never a sibling replica nor a later Replica. It panics when the layer is
// absent from the family or the block index is out of range — weight-fault
// planning is programmer-controlled.
func (m *Model) Weight(ref LayerRef) *tensor.Tensor {
	l := m.linearByRef(ref)
	if l.w == m.pristine[ref.Block].linear(ref.Kind).w {
		l.w = l.w.Clone()
	}
	return l.w
}

// ReadWeight is Weight for reading: it returns the context's matrix — the
// shared one unless a write privatized it — without copying. Callers must
// not write it.
func (m *Model) ReadWeight(ref LayerRef) *tensor.Tensor { return m.linearByRef(ref).w }

// Bias returns the bias vector of the referenced linear layer, or nil when
// the layer (or family) has none. The returned slice is the live parameter —
// callers must treat it as read-only.
func (m *Model) Bias(ref LayerRef) []float32 { return m.linearByRef(ref).b }

// Teacher returns the token the TeacherWeight prior pushes the readout
// toward after tok (see Config.TeacherWeight).
func (m *Model) Teacher(tok int) int { return m.teacher[tok] }

// ReadoutLogits returns the logits behind the token the most recent
// Prefill/PrefillChunk/DecodeStep emitted. The slice aliases the scratch
// arena and is valid until the next forward call; callers must not write it.
func (m *Model) ReadoutLogits() []float32 { return m.scratch.logits.Row(0) }

// State returns the model's own generation state (nil until first used),
// the one SwapState installs. Outside tests the repository benchmark is its
// only caller.
func (m *Model) State() *DecodeState { return m.st }

// Step returns the generation step the state last executed (0 = prefill).
func (st *DecodeState) Step() int { return st.step }

// KVSlabs exposes one block's raw key/value slabs, for mutation, plus the
// number of positions filled and the pitch, the positions per head the slabs
// hold. The layout is head-blocked: element (head h, position p, channel c)
// lives at (h*pitch+p)*headDim + c. A state that borrows a prefix copies it
// into fresh slabs of the same reach, up to MaxSeq, first (copy-on-write):
// the borrowed rows are never written, and a View taken before still reads
// the old slabs.
// Callers mutating the slabs must do so only while no forward pass is
// running on the owning model; callers that only count use KVOwn.
func (st *DecodeState) KVSlabs(block int) (k, v []float32, rows, pitch int) {
	if st.shared > 0 {
		st.repitch(min(st.shared+st.pitch, st.maxSeq), 0)
	}
	span := st.hidden * st.pitch
	k, v = st.buf[2*block*span:], st.buf[(2*block+1)*span:]
	return k[:span:span], v[:span:span], st.rows, st.pitch
}

// KVCell returns, through KVSlabs, block's key (values false) or value
// element at position-major index pos·Hidden+col, or nil when pos is not
// filled.
func (st *DecodeState) KVCell(block int, values bool, elem int) *float32 {
	pos, col := elem/st.hidden, elem%st.hidden
	if pos >= st.rows {
		return nil
	}
	k, v, _, pitch := st.KVSlabs(block)
	if values {
		k = v
	}
	return &k[(col/st.headDim*pitch+pos)*st.headDim+col%st.headDim]
}

// KVOwn returns the KV rows the state's slabs hold — its filled positions
// less the ones it borrows — and their pitch: the state's KV memory.
func (st *DecodeState) KVOwn() (rows, pitch int) {
	return st.own(), st.pitch
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
	for _, w := range m.weightTensors(m.blocks) {
		for _, v := range w.Data {
			sum ^= uint64(math.Float32bits(v))
			sum *= prime64
		}
	}
	return sum
}
