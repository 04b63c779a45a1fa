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
	blocks, heads, headDim, maxSeq int

	// pitch is the number of positions per head the KV slabs hold: element
	// (head h, position p, channel c) of a block lives at (h*pitch+p)*headDim
	// + c. It starts at 0, grows by Reserve or when a forward pass writes a
	// row past it, and never shrinks, so a recycled state keeps its slabs.
	pitch int

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

// NewDecodeState returns a fresh, empty generation state for m's
// architecture. It holds no KV slabs yet: the opener that starts a
// generation on it (BeginPrefill, Restore) reserves the rows it writes, and
// an owner that knows the generation's horizon reserves that first.
func (m *Model) NewDecodeState() *DecodeState {
	cfg := m.Cfg
	return &DecodeState{
		blocks: cfg.Blocks, heads: cfg.Heads, headDim: cfg.HeadDim(), maxSeq: cfg.MaxSeq,
		kv: make([]kvCache, cfg.Blocks),
	}
}

// Reserve makes the KV slabs hold at least rows positions per head — the
// generation's horizon, prompt plus tokens to decode — so no forward pass up
// to it allocates. A row written past the pitch grows it straight to
// MaxSeq instead, once. Reserving no more than the pitch is a no-op; rows
// above MaxSeq panic.
func (st *DecodeState) Reserve(rows int) {
	if rows > st.maxSeq {
		panic(fmt.Sprintf("model: Reserve(%d) exceeds max seq %d", rows, st.maxSeq))
	}
	if rows > st.pitch {
		st.repitch(rows)
	}
}

// repitch moves the slabs of every block into one fresh buffer at the given
// pitch, copying each head's filled rows. The old slabs are left as they
// were: a View taken before the move still reads them, and no forward pass
// writes them again.
func (st *DecodeState) repitch(pitch int) {
	d, span := st.headDim, st.heads*pitch*st.headDim
	buf := make([]float32, 2*len(st.kv)*span)
	for b := range st.kv {
		c := &st.kv[b]
		k := buf[2*b*span : (2*b+1)*span : (2*b+1)*span]
		v := buf[(2*b+1)*span : (2*b+2)*span : (2*b+2)*span]
		for h := 0; h < st.heads; h++ {
			copy(k[h*pitch*d:], c.k[h*st.pitch*d:h*st.pitch*d+c.rows*d])
			copy(v[h*pitch*d:], c.v[h*st.pitch*d:h*st.pitch*d+c.rows*d])
		}
		c.k, c.v = k, v
	}
	st.pitch = pitch
}

// Reset clears the state back to not-started, keeping the slabs and pitch.
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
	cfg := m.Cfg
	if st.blocks != cfg.Blocks || st.heads != cfg.Heads || st.headDim != cfg.HeadDim() || st.maxSeq != cfg.MaxSeq {
		panic(fmt.Sprintf("model: DecodeState of a %d-block/%d×%d-head/%d-seq model used with %s",
			st.blocks, st.heads, st.headDim, st.maxSeq, cfg.Name))
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
