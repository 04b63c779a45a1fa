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
	// (head h, position p, channel c) of a block lives at
	// (h*pitch+p-shared)*headDim + c. It starts at 0, grows by Reserve or
	// when a forward pass writes a row past it, and never shrinks, so a
	// recycled state keeps its slabs.
	pitch int

	// Positions [0,shared) are borrowed: read in place from base, an
	// immutable snapshot (a prefix-cache entry's Prefix view) the state
	// never writes, and the slabs hold only the rows from shared on.
	// ResumePrefillPrefix sets them; Reset, Restore and KVSlabs (which
	// copies the borrowed rows in first) drop them.
	base   *Snapshot
	shared int

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
// architecture. It holds no KV slabs yet: a prefill's first chunk and
// Restore reserve the rows they write, and an owner that knows the
// generation's horizon reserves that first.
func (m *Model) NewDecodeState() *DecodeState {
	cfg := m.Cfg
	return &DecodeState{
		blocks: cfg.Blocks, heads: cfg.Heads, headDim: cfg.HeadDim(), maxSeq: cfg.MaxSeq,
		kv: make([]kvCache, cfg.Blocks),
	}
}

// Reserve makes the state hold at least rows positions per head, borrowed
// ones included — the generation's horizon, prompt plus tokens to decode —
// so no forward pass up to it allocates. A decode row written past them
// grows the slabs straight to MaxSeq instead, once. Reserving no more than
// the state holds is a no-op; rows above MaxSeq panic.
func (st *DecodeState) Reserve(rows int) {
	if rows > st.maxSeq {
		panic(fmt.Sprintf("model: Reserve(%d) exceeds max seq %d", rows, st.maxSeq))
	}
	if rows > st.shared+st.pitch {
		st.repitch(rows-st.shared, st.shared)
	}
}

// repitch moves the slabs of every block into one fresh buffer at the given
// pitch, copying each head's filled rows from position from on — the
// borrowed ones too when from is below shared, which ends the borrow. The
// old slabs are left as they were: a View taken before the move still reads
// them, and no forward pass writes them again.
func (st *DecodeState) repitch(pitch, from int) {
	d, span := st.headDim, st.heads*pitch*st.headDim
	buf := make([]float32, 2*len(st.kv)*span)
	for b := range st.kv {
		c := &st.kv[b]
		k := buf[2*b*span : (2*b+1)*span : (2*b+1)*span]
		v := buf[(2*b+1)*span : (2*b+2)*span : (2*b+2)*span]
		for h := 0; h < st.heads; h++ {
			st.copyRows(k[h*pitch*d:], false, b, h, from, c.rows)
			st.copyRows(v[h*pitch*d:], true, b, h, from, c.rows)
		}
		c.k, c.v = k, v
	}
	st.pitch = pitch
	if from < st.shared {
		st.base, st.shared = nil, from
	}
}

// run returns the longest contiguous run of head h's positions [lo,hi) of
// block b's keys (values when v), lo < hi ≤ the rows filled, and the
// position it ends at: a borrowed run from the base chain, or the slabs'.
func (st *DecodeState) run(v bool, b, h, lo, hi int) ([]float32, int) {
	if lo < st.shared {
		return st.base.run(v, b, h, lo, min(hi, st.shared))
	}
	buf := st.kv[b].k
	if v {
		buf = st.kv[b].v
	}
	off := (h*st.pitch - st.shared) * st.headDim
	return buf[off+lo*st.headDim : off+hi*st.headDim], hi
}

// copyRows copies head h's positions [lo,hi) of block b's keys (values when
// v) into dst, borrowed ones included.
func (st *DecodeState) copyRows(dst []float32, v bool, b, h, lo, hi int) {
	for lo < hi {
		r, end := st.run(v, b, h, lo, hi)
		dst, lo = dst[copy(dst, r):], end
	}
}

// Reset clears the state back to not-started, keeping the slabs and pitch
// and dropping any borrowed prefix.
func (st *DecodeState) Reset() {
	for i := range st.kv {
		st.kv[i].rows = 0
	}
	st.base, st.shared = nil, 0
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
