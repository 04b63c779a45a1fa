package model

import "fmt"

// DecodeState is the complete per-generation mutable state of a model: the
// KV slab caches plus the step/prompt counters and the last decoded token.
// Extracting it from the Model lets one replica serve many concurrent
// sessions without copying KV state around — the serving scheduler keeps a
// DecodeState per session and passes them to ForwardBatch, swapping one in
// (SwapState) only to checkpoint or restore it.
//
// A DecodeState belongs to one generation at a time. It may move between
// replicas of the same (config, seed, dtype) model freely — the weights are
// bit-identical, so a decode continued on another replica reproduces the
// original continuation exactly (the same argument as Snapshot portability,
// without the copy).
type DecodeState struct {
	// identity of the allocating model's architecture, checked on swap
	blocks, slab int

	step           int
	promptLen      int
	lastTok        int
	lastStreamNorm float32
	kv             []kvCache

	// prefillPos is the chunked-prefill cursor: how many prompt rows have
	// been processed so far. A state is mid-prefill while 0 < prefillPos <
	// promptLen (decode and checkpointing are forbidden then); the final
	// PrefillChunk sets it to promptLen, which is also what Prefill and
	// Restore establish directly.
	prefillPos int
}

// NewDecodeState allocates a fresh, empty generation state sized for m's
// architecture (Blocks × 2 slabs of MaxSeq×Hidden floats).
func (m *Model) NewDecodeState() *DecodeState {
	cfg := m.Cfg
	slab := cfg.MaxSeq * cfg.Hidden
	st := &DecodeState{blocks: cfg.Blocks, slab: slab}
	st.kv = make([]kvCache, cfg.Blocks)
	for i := range st.kv {
		st.kv[i].k = make([]float32, slab)
		st.kv[i].v = make([]float32, slab)
	}
	return st
}

// Reset clears the state back to not-started without freeing the slabs.
func (st *DecodeState) Reset() {
	for i := range st.kv {
		st.kv[i].rows = 0
	}
	st.step = 0
	st.promptLen = 0
	st.lastTok = 0
	st.lastStreamNorm = 0
	st.prefillPos = 0
}

// Started reports whether the state holds a live generation (a completed
// Prefill or a Restore populated it). A state mid-way through a chunked
// prefill is not started yet: its KV rows exist but no first token has been
// decoded, so DecodeStep and Checkpoint must wait for the final chunk.
func (st *DecodeState) Started() bool {
	return st != nil && st.promptLen > 0 && st.prefillPos >= st.promptLen
}

// PrefillPos returns the chunked-prefill cursor: prompt rows processed so
// far. It equals PromptLen once the prefill (chunked or single-pass)
// completed, and is 0 for a state that never began one.
func (st *DecodeState) PrefillPos() int {
	if st == nil {
		return 0
	}
	return st.prefillPos
}

// Prefilling reports whether the state is mid-way through a chunked prefill:
// a BeginPrefill happened but the final PrefillChunk has not run yet.
func (st *DecodeState) Prefilling() bool {
	return st != nil && st.promptLen > 0 && st.prefillPos < st.promptLen
}

// SeqLen returns the sequence positions occupied (prompt plus decoded
// steps); zero when not started.
func (st *DecodeState) SeqLen() int {
	if st == nil || st.promptLen == 0 {
		return 0
	}
	return st.promptLen + st.step
}

// LastToken returns the most recently decoded token.
func (st *DecodeState) LastToken() int { return st.lastTok }

// pos returns the absolute sequence position of the step the state is
// currently executing (promptLen + step - 1); callers increment step first.
func (st *DecodeState) pos() int { return st.promptLen + st.step - 1 }

// checkCompatible panics when the state was allocated for a different
// architecture than m's.
func (m *Model) checkCompatible(st *DecodeState) {
	if st.blocks != m.Cfg.Blocks || st.slab != m.Cfg.MaxSeq*m.Cfg.Hidden {
		panic(fmt.Sprintf("model: DecodeState of a %d-block/%d-slab model used with %s",
			st.blocks, st.slab, m.Cfg.Name))
	}
}

// SwapState installs st as the model's active generation state and returns
// the previously active one (nil if the model never generated). Prefill,
// DecodeStep, Checkpoint, and Restore all operate on the active state, so a
// scheduler multiplexing sessions over one replica swaps the session's state
// in, runs its steps, and swaps the old state back — no KV copies. A nil st
// detaches the current state; the next Prefill then allocates a fresh one.
func (m *Model) SwapState(st *DecodeState) *DecodeState {
	if st != nil {
		m.checkCompatible(st)
	}
	prev := m.st
	m.st = st
	return prev
}
