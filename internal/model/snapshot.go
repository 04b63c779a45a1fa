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
	// identity of the capturing model, checked on Restore
	family                          Family
	blocks, hidden, maxSeq, headDim int

	nextStep       int // the generation step the restored model executes next
	lastTok        int // token to feed into that step
	promptLen      int
	rows           int // KV rows usable from this snapshot (or view)
	lastStreamNorm float32
	k, v           [][]float32 // per block, stride×hidden, head-blocked at stride

	// stride is the per-head row pitch of the k/v buffers. A snapshot fresh
	// from Checkpoint has stride == rows and a Share the rows it owns; a
	// View aliases the live slabs at the state's pitch, so readers must walk
	// head h at offset h*stride*headDim and take only the rows filled.
	stride int

	// Rows [0,shared) are base's (Share, Prefix, a View of a borrowing
	// state); k/v hold rows [shared,rows), so row r of head h sits at
	// h*stride*headDim + (r-shared)*headDim. base is immutable and may
	// itself read from a base.
	base   *Snapshot
	shared int
}

// NextStep returns the generation step a restored model executes next; the
// snapshot captures the state after steps 0..NextStep-1 completed.
func (s *Snapshot) NextStep() int { return s.nextStep }

// LastToken returns the token DecodeStep must be fed at NextStep (Restore
// also returns it).
func (s *Snapshot) LastToken() int { return s.lastTok }

// Rows returns the number of KV rows the snapshot holds per block.
func (s *Snapshot) Rows() int { return s.rows }

// MemoryBytes returns the heap footprint of the snapshot's own KV payload:
// Blocks × 2 × rows × Hidden float32s, less the rows a shared snapshot reads
// from its base. The bookkeeping fields are a few dozen bytes on top.
func (s *Snapshot) MemoryBytes() int {
	return s.blocks * 2 * (s.rows - s.shared) * s.hidden * 4
}

// Compatible reports whether the snapshot can be restored into a model of
// the given configuration, returning a descriptive error when it cannot.
// Boundary layers (the serving API) check this before calling Restore so an
// architecture mismatch surfaces as a returned error instead of Restore's
// programmer-error panic.
func (s *Snapshot) Compatible(cfg Config) error {
	if s.rows == 0 {
		return fmt.Errorf("model: empty snapshot (never captured)")
	}
	if s.family != cfg.Family || s.blocks != cfg.Blocks || s.hidden != cfg.Hidden || s.maxSeq != cfg.MaxSeq || s.headDim != cfg.HeadDim() {
		return fmt.Errorf("model: snapshot of a %s %d-block/%d-hidden/%d-seq model is incompatible with %s",
			s.family, s.blocks, s.hidden, s.maxSeq, cfg.Name)
	}
	return nil
}

// Checkpoint copies the model's generation state into the snapshot,
// reusing its buffers when they are large enough. It must be called between
// steps — after Prefill or a DecodeStep returned and before the next
// DecodeStep — and captures the state "before step NextStep".
func (m *Model) Checkpoint(into *Snapshot) {
	if !m.st.Started() {
		panic("model: Checkpoint before Prefill")
	}
	cfg := m.Cfg
	d := cfg.HeadDim()
	st := m.st
	rows := st.kv[0].rows
	into.family = cfg.Family
	into.blocks, into.hidden, into.maxSeq, into.headDim = cfg.Blocks, cfg.Hidden, cfg.MaxSeq, d
	into.nextStep = st.step + 1
	into.lastTok = st.lastTok
	into.promptLen = st.promptLen
	into.rows = rows
	into.stride = rows
	into.lastStreamNorm = st.lastStreamNorm
	into.base, into.shared = nil, 0

	if len(into.k) != cfg.Blocks {
		into.k = make([][]float32, cfg.Blocks)
		into.v = make([][]float32, cfg.Blocks)
	}
	span := rows * cfg.Hidden
	for b := range st.kv {
		if cap(into.k[b]) < span {
			into.k[b] = make([]float32, span)
			into.v[b] = make([]float32, span)
		}
		dk, dv := into.k[b][:span], into.v[b][:span]
		into.k[b], into.v[b] = dk, dv
		// Compact each head's rows, borrowed ones first, to snapshot offset
		// h*rows*d.
		for h := 0; h < cfg.Heads; h++ {
			st.copyRows(dk[h*rows*d:], false, b, h, 0, rows)
			st.copyRows(dv[h*rows*d:], true, b, h, 0, rows)
		}
	}
}

// srcStride returns the per-head row pitch to read the k/v buffers at. Older
// snapshots (and zero values) predate the stride field; for them the buffers
// are packed at rows.
func (s *Snapshot) srcStride() int {
	if s.stride > 0 {
		return s.stride
	}
	return s.rows
}

// Prefix returns a read-only view of the snapshot truncated to its first rows
// KV rows — the forkable shared-prompt prefix the serving prefix cache hands
// to sessions. The view owns no rows: it reads all of them from its parent
// (from the parent's base when that holds them all), which must stay
// immutable while the view lives, as cache snapshots are. It carries no
// resume point: NextStep/LastToken/promptLen are zero, so it can only seed a
// chunked prefill via Model.ResumePrefillPrefix, never a full Restore. rows
// may be 0 (an empty view) up to the parent's Rows().
func (s *Snapshot) Prefix(rows int) *Snapshot {
	if rows < 0 || rows > s.rows {
		panic(fmt.Sprintf("model: Snapshot.Prefix(%d) outside [0,%d]", rows, s.rows))
	}
	if s.base != nil && rows <= s.shared {
		return s.base.Prefix(rows)
	}
	return &Snapshot{
		family: s.family, blocks: s.blocks, hidden: s.hidden,
		maxSeq: s.maxSeq, headDim: s.headDim,
		rows: rows,
		base: s, shared: rows,
	}
}

// Share returns a copy of s whose first k rows are read from base instead of
// held: its own buffers hold only rows [k, Rows()), so it encodes, restores
// and seeds a prefill exactly as s does while MemoryBytes counts only what it
// owns. base must hold s's rows [0,k) bit for bit — the caller guarantees it,
// as bare KV rows are a pure function of the token prefix — and, like a
// Prefix parent, stay immutable while the result lives. s is not modified.
func (s *Snapshot) Share(base *Snapshot, k int) *Snapshot {
	if k < 0 || k > s.rows || k > base.rows {
		panic(fmt.Sprintf("model: Snapshot.Share(%d) outside [0,min(%d,%d)]", k, s.rows, base.rows))
	}
	if base.family != s.family || base.blocks != s.blocks || base.hidden != s.hidden || base.maxSeq != s.maxSeq || base.headDim != s.headDim {
		panic("model: Snapshot.Share with a base of another architecture")
	}
	out := *s
	own := s.rows - k
	out.base, out.shared, out.stride = base, k, own
	out.k, out.v = make([][]float32, s.blocks), make([][]float32, s.blocks)
	span := own * s.hidden
	buf := make([]float32, 2*s.blocks*span)
	d := s.headDim
	for b := range out.k {
		out.k[b], buf = buf[:span:span], buf[span:]
		out.v[b], buf = buf[:span:span], buf[span:]
		for h := 0; h < s.hidden/d; h++ {
			s.copyRows(out.k[b][h*own*d:], false, b, h, k, s.rows)
			s.copyRows(out.v[b][h*own*d:], true, b, h, k, s.rows)
		}
	}
	return &out
}

// run returns the longest contiguous run of head h's rows [lo,hi) of block
// b's k (v when v) buffers, lo < hi ≤ Rows(), and the row it ends at: rows
// below shared come from the base chain.
func (s *Snapshot) run(v bool, b, h, lo, hi int) ([]float32, int) {
	for lo < s.shared {
		s, hi = s.base, min(hi, s.shared)
	}
	buf := s.k[b]
	if v {
		buf = s.v[b]
	}
	off := (h*s.srcStride() - s.shared) * s.headDim
	return buf[off+lo*s.headDim : off+hi*s.headDim], hi
}

// copyRows copies head h's rows [lo,hi) of block b's k (v when v) into dst,
// the base's share first.
func (s *Snapshot) copyRows(dst []float32, v bool, b, h, lo, hi int) {
	for lo < hi {
		r, end := s.run(v, b, h, lo, hi)
		dst, lo = dst[copy(dst, r):], end
	}
}

// View fills into with a read-only, no-copy view of st's generation state:
// the bookkeeping Checkpoint would capture, with k/v aliasing st's KV slabs
// at stride st's pitch and its borrowed rows read from the same base (the
// form Share gives). It encodes (AppendSnapshot) to the bytes of a
// Checkpoint copy and restores like one. A decode step only appends rows —
// and a step that grows the pitch copies them into new slabs, leaving the old
// ones untouched, as KVSlabs does when it ends a borrow — so the view stays
// valid until st is reset, restored or has a row of its slabs rewritten: the
// migration export encodes a view taken at a stride boundary on another
// goroutine while the session decodes on. into's
// per-block slice headers are reused while st's slabs stay put, and a second
// view of the same slabs rewrites only the bookkeeping, never those headers;
// once the slabs moved, View builds new headers. Either way a copy of an
// earlier view of st is read without racing the next View.
func (m *Model) View(st *DecodeState, into *Snapshot) {
	m.checkCompatible(st)
	if !st.Started() {
		panic("model: View before Prefill")
	}
	cfg := m.Cfg
	k, v := into.k, into.v
	if len(k) != len(st.kv) || &k[0][0] != &st.kv[0].k[0] {
		k, v = make([][]float32, len(st.kv)), make([][]float32, len(st.kv))
		for b := range st.kv {
			k[b], v[b] = st.kv[b].k, st.kv[b].v
		}
	}
	*into = Snapshot{
		family: cfg.Family,
		blocks: cfg.Blocks, hidden: cfg.Hidden, maxSeq: cfg.MaxSeq, headDim: cfg.HeadDim(),
		nextStep:       st.step + 1,
		lastTok:        st.lastTok,
		promptLen:      st.promptLen,
		rows:           st.kv[0].rows,
		stride:         st.pitch,
		lastStreamNorm: st.lastStreamNorm,
		k:              k, v: v,
		base: st.base, shared: st.shared,
	}
}

// Restore loads the snapshot into the model — a handful of copies into the
// KV slabs, which it grows to the snapshot's rows if they are shorter; a
// restored state borrows nothing — and returns the token to feed the next
// DecodeStep.
// The model must have the same architecture the snapshot was captured from;
// registered hooks are left untouched. After Restore the model's state is
// bit-identical to the capturing model's at Checkpoint time, so a greedy
// decode from here reproduces the original continuation exactly.
func (m *Model) Restore(s *Snapshot) int {
	cfg := m.Cfg
	if s.rows == 0 {
		panic("model: Restore of an empty snapshot")
	}
	if s.nextStep == 0 {
		panic("model: Restore of a prefix view; use ResumePrefillPrefix")
	}
	if s.family != cfg.Family || s.blocks != cfg.Blocks || s.hidden != cfg.Hidden || s.maxSeq != cfg.MaxSeq || s.headDim != cfg.HeadDim() {
		panic(fmt.Sprintf("model: snapshot of a %s %d×%d/%d-seq model restored into %s",
			s.family, s.blocks, s.hidden, s.maxSeq, cfg.Name))
	}
	m.resetState()
	st := m.st
	st.Reserve(s.rows)
	st.step = s.nextStep - 1
	st.lastTok = s.lastTok
	st.promptLen = s.promptLen
	st.prefillPos = s.promptLen
	st.lastStreamNorm = s.lastStreamNorm
	d := s.headDim
	for b := range st.kv {
		for h := 0; h < st.heads; h++ {
			s.copyRows(st.kv[b].k[h*st.pitch*d:], false, b, h, 0, s.rows)
			s.copyRows(st.kv[b].v[h*st.pitch*d:], true, b, h, 0, s.rows)
		}
		st.kv[b].rows = s.rows
	}
	return s.lastTok
}
