package model

import "fmt"

// Snapshot is a restorable copy of a model's mid-generation state: the
// rows-prefix of every block's KV slabs (stored compactly, head-blocked at
// the filled row count instead of the state's pitch), the step counter, and the
// last-token state. A snapshot captured between two decode steps lets any
// replica of the same (config, seed, dtype) model resume the generation at
// exactly that point — the checkpoint/fork primitive the campaign engine
// uses to skip the fault-free prefix of every trial.
//
// Snapshots are deep copies: they stay valid after the source model moves
// on, and one snapshot can be restored concurrently into many worker
// replicas (Restore only reads it). There are three exceptions, which share
// buffers instead: Prefix is a read-only view of a parent's rows, View one
// of a live DecodeState's KV slabs (and of the rows the state borrows), and
// Share reads its first rows from a base snapshot and owns only the rest.
type Snapshot struct {
	arch // of the capturing model, checked on Restore

	nextStep       int // the generation step the restored model executes next
	lastTok        int // token to feed into that step
	promptLen      int
	lastStreamNorm float32

	// kvRows holds the KV rows usable from this snapshot (or view). A
	// snapshot fresh from Checkpoint holds them all at pitch rows; a Share
	// holds the rows past its base's; a View aliases the live slabs at the
	// state's pitch and borrowed rows; a Prefix holds none.
	kvRows
	// view marks kvRows.buf as a live state's slabs (View): Checkpoint never
	// reuses it.
	view bool
}

// arch is a model architecture as far as KV rows depend on it: two models
// of equal arch read each other's snapshots.
type arch struct {
	family                          Family
	blocks, hidden, maxSeq, headDim int
}

func (c Config) arch() arch {
	return arch{c.Family, c.Blocks, c.Hidden, c.MaxSeq, c.HeadDim()}
}

// desc names a for a mismatch message.
func (a arch) desc() string {
	return fmt.Sprintf("%s %d-block/%d-hidden/%d-seq", a.family, a.blocks, a.hidden, a.maxSeq)
}

// kv returns an empty kvRows laid out for a.
func (a arch) kv() kvRows {
	return kvRows{lanes: 2 * a.blocks * (a.hidden / a.headDim), d: a.headDim}
}

// NextStep returns the generation step a restored model executes next; the
// snapshot captures the state after steps 0..NextStep-1 completed.
func (s *Snapshot) NextStep() int { return s.nextStep }

// LastToken returns the token DecodeStep must be fed at NextStep (Restore
// also returns it).
func (s *Snapshot) LastToken() int { return s.lastTok }

// Rows returns the number of KV rows the snapshot holds per block.
func (s *Snapshot) Rows() int { return s.rows }

// Blocks returns the decoder block count of the capturing model.
func (s *Snapshot) Blocks() int { return s.blocks }

// MemoryBytes returns the heap footprint of the snapshot's own KV payload:
// Blocks × 2 × rows × Hidden float32s, less the rows a shared snapshot reads
// from its base. The bookkeeping fields are a few dozen bytes on top.
func (s *Snapshot) MemoryBytes() int { return s.lanes * s.own() * s.d * 4 }

// Shared returns the rows the snapshot reads from its base instead of
// holding them: 0 for a whole snapshot, Rows() for a Prefix view.
func (s *Snapshot) Shared() int { return s.shared }

// Compatible reports whether the snapshot can be restored into a model of
// the given configuration, returning a descriptive error when it cannot.
// Boundary layers (the serving API) check this before calling Restore so an
// architecture mismatch surfaces as a returned error instead of Restore's
// programmer-error panic.
func (s *Snapshot) Compatible(cfg Config) error {
	if s.rows == 0 {
		return fmt.Errorf("model: empty snapshot (never captured)")
	}
	if s.arch != cfg.arch() {
		return fmt.Errorf("model: snapshot of a %s model is incompatible with %s", s.desc(), cfg.Name)
	}
	return nil
}

// Checkpoint copies the state into the snapshot, reusing its buffer when it
// is large enough and not a View's — whose buffer is a live state's slabs,
// which the compaction would overwrite under the state. It must be called
// between steps — after the prefill completed or a decode step returned and
// before the next — and captures the state "before step NextStep": a View
// of it with the rows compacted to pitch rows, borrowed ones copied in.
func (st *DecodeState) Checkpoint(into *Snapshot) {
	buf := into.buf
	if into.view {
		buf = nil
	}
	st.View(into)
	into.kvRows, into.view = into.carve(buf, into.rows, 0, nil), false
}

// Checkpoint is DecodeState.Checkpoint over the model's own state.
func (m *Model) Checkpoint(into *Snapshot) { m.st.Checkpoint(into) }

// Prefix returns a read-only view of the snapshot truncated to its first rows
// KV rows — the forkable shared-prompt prefix the serving prefix cache hands
// to sessions. The view owns no rows: it reads all of them from its parent
// (from the deepest base holding them all), which must stay immutable while
// the view lives, as cache snapshots are. It carries no resume point:
// NextStep/LastToken/promptLen are zero, so it can only seed a chunked
// prefill via DecodeState.ResumePrefix, never a full Restore. rows may be 0
// (an empty view) up to the parent's Rows().
func (s *Snapshot) Prefix(rows int) *Snapshot {
	if rows < 0 || rows > s.rows {
		panic(fmt.Sprintf("model: Snapshot.Prefix(%d) outside [0,%d]", rows, s.rows))
	}
	base := &s.kvRows
	for base.base != nil && rows <= base.shared {
		base = base.base
	}
	return &Snapshot{arch: s.arch, kvRows: kvRows{lanes: s.lanes, d: s.d, rows: rows, base: base, shared: rows}}
}

// Share returns a copy of s whose first k rows are read from base instead of
// held: its own buffer holds only rows [k, Rows()), so it encodes, restores
// and seeds a prefill exactly as s does while MemoryBytes counts only what it
// owns. base must hold s's rows [0,k) bit for bit — the caller guarantees it,
// as bare KV rows are a pure function of the token prefix — and, like a
// Prefix parent, stay immutable while the result lives. s is not modified.
func (s *Snapshot) Share(base *Snapshot, k int) *Snapshot {
	if k < 0 || k > s.rows || k > base.rows {
		panic(fmt.Sprintf("model: Snapshot.Share(%d) outside [0,min(%d,%d)]", k, s.rows, base.rows))
	}
	if base.arch != s.arch {
		panic("model: Snapshot.Share with a base of another architecture")
	}
	out := *s
	out.kvRows = s.carve(nil, s.rows-k, k, &base.kvRows)
	return &out
}

// View fills into with a read-only, no-copy view of the state: the
// bookkeeping Checkpoint would capture and a copy of its kvRows — its slabs
// at its pitch and the base it borrows from. It encodes (AppendSnapshot) to
// the bytes of a Checkpoint copy and restores like one. A decode step only
// appends rows, and every move of the slabs — pitch growth, KVSlabs ending
// a borrow — installs a fresh buffer and leaves the old one as it was, so
// the view stays valid until the state is reset, restored or has a slab row
// rewritten: the migration export encodes a view taken at a stride boundary
// on another goroutine while the session decodes on.
func (st *DecodeState) View(into *Snapshot) {
	if !st.Started() {
		panic("model: View or Checkpoint before the prefill completed")
	}
	*into = Snapshot{
		arch:           st.arch,
		nextStep:       st.step + 1,
		lastTok:        st.lastTok,
		promptLen:      st.promptLen,
		lastStreamNorm: st.lastStreamNorm,
		kvRows:         st.kvRows,
		view:           true,
	}
}

// Restore loads the snapshot into the state — a handful of copies into the
// KV slabs, grown to the snapshot's rows if shorter; a restored state
// borrows nothing — and returns the token to feed the next decode step.
// Architectures must match. The state is then bit-identical to the captured
// one, so a greedy decode reproduces the original continuation exactly.
func (st *DecodeState) Restore(s *Snapshot) int {
	if s.rows == 0 {
		panic("model: Restore of an empty snapshot")
	}
	if s.nextStep == 0 {
		panic("model: Restore of a prefix view; use ResumePrefix")
	}
	if s.arch != st.arch {
		panic(fmt.Sprintf("model: snapshot of a %s model restored into a %s state", s.desc(), st.desc()))
	}
	st.Reset()
	st.kvRows = s.carve(st.buf, max(st.pitch, s.rows), 0, nil)
	st.step = s.nextStep - 1
	st.lastTok = s.lastTok
	st.promptLen = s.promptLen
	st.prefillPos = s.promptLen
	st.lastStreamNorm = s.lastStreamNorm
	return s.lastTok
}

// Restore is DecodeState.Restore over the model's own state.
func (m *Model) Restore(s *Snapshot) int { return m.state().Restore(s) }
