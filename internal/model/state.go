package model

import "fmt"

// DecodeState is the complete per-generation mutable state of a model: the
// KV slab caches plus the step/prompt counters and the last decoded token.
// Extracting it from the Model lets one replica serve many concurrent
// sessions without copying KV state around — the serving scheduler keeps a
// DecodeState per session, opens, checkpoints and restores it through its
// own methods, and passes it to ForwardBatch to advance it.
//
// A DecodeState belongs to one generation at a time. It may move between
// replicas of the same (config, seed, dtype) model freely — the weights are
// bit-identical, so a decode continued on another replica reproduces the
// original continuation exactly (the same argument as Snapshot portability,
// without the copy).
type DecodeState struct {
	// arch is the allocating model's, checked wherever the state meets a
	// model (a forward pass) or a snapshot (ResumePrefix, Restore).
	arch

	// kvRows holds the KV rows filled so far, head h of block b at lanes
	// 2b·heads+h (keys) and (2b+1)·heads+h (values). Its pitch starts at 0,
	// grows by Reserve or when a forward pass writes a row past it, and
	// never shrinks, so a recycled state keeps its slabs. Rows [0,shared)
	// are borrowed: read in place from base, an immutable snapshot's rows (a
	// prefix-cache entry's Prefix view) the state never writes.
	// ResumePrefix sets them; Reset, Restore and KVSlabs (which
	// copies the borrowed rows in first) drop them.
	kvRows

	step           int
	promptLen      int
	lastTok        int
	lastStreamNorm float32

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
	a := m.Cfg.arch()
	return &DecodeState{arch: a, kvRows: a.kv()}
}

// Reserve makes the state hold at least rows positions per head, borrowed
// ones included — the generation's horizon, prompt plus tokens to decode —
// so no forward pass up to it allocates. It grows the pitch to exactly
// rows; a decode row written past them doubles it (ForwardBatch). Reserving
// no more than the state holds is a no-op; rows above MaxSeq panic.
func (st *DecodeState) Reserve(rows int) {
	if rows > st.maxSeq {
		panic(fmt.Sprintf("model: Reserve(%d) exceeds max seq %d", rows, st.maxSeq))
	}
	if rows > st.shared+st.pitch {
		st.repitch(rows-st.shared, st.shared)
	}
}

// repitch moves the slabs into one fresh buffer at the given pitch, copying
// each lane's filled rows from position from on — the borrowed ones too when
// from is 0, which ends the borrow. Reserve, KVSlabs and a forward pass's
// growth move the slabs through it, one allocation per move. The old buffer
// is left as it was: a View taken before the move still reads it, and no
// forward pass writes it again.
func (st *DecodeState) repitch(pitch, from int) {
	st.kvRows = st.carve(nil, pitch, from, st.base)
}

// Reset clears the state back to not-started, keeping the slabs and pitch
// and dropping any borrowed prefix.
func (st *DecodeState) Reset() {
	st.rows, st.base, st.shared = 0, nil, 0
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
// far. It equals the prompt length once the prefill (chunked or single-pass)
// completed, and is 0 for a state that never began one.
func (st *DecodeState) PrefillPos() int { return st.prefillPos }

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
	if st.arch != m.Cfg.arch() {
		panic(fmt.Sprintf("model: DecodeState of a %s model used with %s", st.desc(), m.Cfg.Name))
	}
}

// BeginPrefill resets the state and opens a chunked prefill for a prompt of
// n tokens, fed by prefill items (ForwardBatch, or the model's PrefillChunk)
// after an optional ResumePrefix. Until the final chunk the state is
// mid-prefill: decoding or checkpointing it panics. The first chunk reserves
// the prompt rows the state does not borrow.
func (st *DecodeState) BeginPrefill(n int) {
	if n <= 0 {
		panic("model: empty prompt")
	}
	if n > st.maxSeq {
		panic(fmt.Sprintf("model: prompt %d exceeds max seq %d", n, st.maxSeq))
	}
	st.Reset()
	st.promptLen = n
}

// ResumePrefix seeds a just-begun chunked prefill with a cached KV prefix:
// the state borrows the snapshot's rows — reads them in place, never writes
// them — and the prefill cursor advances past them, so the remaining chunks
// compute only the suffix. The snapshot (typically a prefix-cache
// Snapshot.Prefix view) must stay immutable while the state borrows it —
// until Reset, Restore or KVSlabs — and hold the KV rows of the prompt's
// first Rows() tokens, which the caller guarantees. At least one row must be
// left to compute: the readout needs the final row's residual stream.
func (st *DecodeState) ResumePrefix(s *Snapshot) {
	if st.promptLen == 0 || st.prefillPos != 0 {
		panic("model: ResumePrefix outside a just-begun prefill")
	}
	if s.arch != st.arch {
		panic(fmt.Sprintf("model: snapshot of a %s model resumed into a %s state", s.desc(), st.desc()))
	}
	if s.rows >= st.promptLen {
		panic(fmt.Sprintf("model: cached prefix %d rows leaves no suffix for a %d-token prompt", s.rows, st.promptLen))
	}
	if s.rows > 0 {
		st.rows, st.base, st.shared, st.prefillPos = s.rows, &s.kvRows, s.rows, s.rows
	}
}

// SwapState installs st (nil detaches) as the model's own generation state,
// the one its one-item methods act on, and returns the previous one. Code
// handling several sessions names each one's state instead: outside tests,
// the repository benchmark is the only caller.
func (m *Model) SwapState(st *DecodeState) *DecodeState {
	if st != nil {
		m.checkCompatible(st)
	}
	prev := m.st
	m.st = st
	return prev
}
