package model

import (
	"fmt"
	"math"

	"ft2/internal/tensor"
)

// BatchItem is one session's slot in a ForwardBatch call. An item
// contributes a *row range* to the fused activation matrix:
//
//   - a decoding session contributes 1 row — the token Tok fed at its next
//     sequence position (Prefill nil);
//   - a session mid-prefill contributes len(Prefill) rows — the next
//     consecutive chunk of its prompt, starting at State.PrefillPos().
//
// Hooks run per layer invocation against a view of this item's row range of
// the layer output, in order — exactly the tensor shape the session would
// see decoding alone (1 row) or prefilling alone (C rows).
type BatchItem struct {
	State *DecodeState
	Tok   int
	// Prefill, when non-empty, marks this item as a prefill range: the
	// consecutive prompt tokens starting at State.PrefillPos(). The item's
	// State must be mid-prefill (BeginPrefill done, prompt rows left) and
	// the chunk must not overrun the prompt.
	Prefill []int
	Hooks   []Hook
}

// prefilling reports whether the item carries a prefill row range.
func (it *BatchItem) prefilling() bool { return len(it.Prefill) > 0 }

// rows is the number of fused activation rows the item contributes.
func (it *BatchItem) rows() int {
	if it.prefilling() {
		return len(it.Prefill)
	}
	return 1
}

// ForwardBatch advances B independent sessions — any mix of mid-prefill and
// decoding — in a single forward pass: the sessions' rows are stacked into
// one m=ΣC activation matrix, so every linear layer (attention projections,
// MLP, LM head) streams its weight matrix exactly once per call regardless
// of phase. Attention stays per-session over each state's own KV slab, with
// causal masking inside multi-row prefill ranges.
//
// One result is appended to dst per item, in order: the decoded token for a
// decode row, the first token for a prefill range that completes its
// prompt, and -1 for a mid-prefill range (more chunks to come). Each item's
// State advances exactly as DecodeStep / PrefillChunk — the one-item case
// of this pass — advance the model's own state.
//
// Bit identity: every linear output row is an independent Dot(x-row, w-row)
// whose FP op order does not depend on the row count, normalization and
// readout are computed row-by-row, and attention reads only the session's
// own KV with the same per-row causal limit — so each session's tokens (and
// its entire KV/state evolution) are the same bits no matter which rows it
// was co-batched with, alone included. TestSerialGoldenDigest pins the
// one-item case to numbers recorded from the separate serial pass it
// replaced; the batching-invariance property test and serve's
// TestServedMatchesOracle pin every grouping to that case.
//
// Per-session hooks ride on BatchItem.Hooks; model-level hooks registered
// with RegisterHook cannot be attributed to a session and make the call
// panic. Every item is validated before any state is touched: a panic on a
// bad item (incompatible or unstarted state, decode position at MaxSeq,
// chunk overrunning its prompt, token outside the vocabulary) leaves all
// items as they were. Duplicate States within one call are a caller bug
// (the same KV slab would be appended twice). A state whose slabs the call's
// rows would overrun grows them first, by one rule: the new reach is
// min(MaxSeq, max(rows needed, borrowed rows + 2 × pitch)), where a prefill
// chunk needs its whole prompt and a decode row its position + 1. A fresh
// state (pitch 0) thus reserves exactly its prompt, and an open-ended decode
// doubles its slabs as it goes (DecodeState.Reserve sizes them exactly up
// front). That, and the arena growing to a pass larger than any before, are
// the only allocations a pass makes.
func (m *Model) ForwardBatch(items []BatchItem, dst []int) []int {
	if len(items) == 0 {
		panic("model: ForwardBatch with no items")
	}
	if len(m.hooks) != 0 {
		panic("model: ForwardBatch with model-level hooks registered; attach per-session hooks via BatchItem.Hooks")
	}
	m.ensureRuntime()
	return m.forwardBatch(items, dst)
}

// forwardBatch is the one forward pass: Prefill, PrefillChunk and DecodeStep
// run it over a single item (forwardActive), ForwardBatch over the caller's.
func (m *Model) forwardBatch(items []BatchItem, dst []int) []int {
	cfg := m.Cfg
	sc := m.scratch

	for i := range items {
		it := &items[i]
		st := it.State
		m.checkCompatible(st)
		if it.prefilling() {
			if !st.Prefilling() {
				panic("model: prefill chunk without an open prefill")
			}
			if st.prefillPos+len(it.Prefill) > st.promptLen {
				panic(fmt.Sprintf("model: prefill chunk overruns prompt (%d+%d > %d)",
					st.prefillPos, len(it.Prefill), st.promptLen))
			}
			for _, tok := range it.Prefill {
				m.checkToken(tok)
			}
			continue
		}
		if !st.Started() {
			panic("model: decode step before the prefill completed or a Restore")
		}
		if pos := st.SeqLen(); pos >= cfg.MaxSeq {
			panic(fmt.Sprintf("model: decode position %d exceeds max seq %d", pos, cfg.MaxSeq))
		}
		m.checkToken(it.Tok)
	}

	// Row-range layout: itemLo[i] is item i's first fused row, itemPos[i]
	// the absolute sequence position of that row. Decode items claim their
	// step here; prefill cursors advance once their rows are computed.
	sc.itemLo = sc.itemLo[:0]
	sc.itemRows = sc.itemRows[:0]
	sc.itemPos = sc.itemPos[:0]
	rows := 0
	for i := range items {
		it := &items[i]
		r := it.rows()
		st := it.State
		pos := st.prefillPos
		if !it.prefilling() {
			st.step++
			pos = st.pos()
		}
		if need := pos + r; need > st.shared+st.pitch {
			// A write past the state's reach doubles its pitch, or takes the
			// rows the item needs (a prefill its whole prompt) when that is
			// more, never past MaxSeq.
			if it.prefilling() {
				need = st.promptLen
			}
			st.repitch(min(st.maxSeq, max(need, st.shared+2*st.pitch))-st.shared, st.shared)
		}
		st.rows = pos + r // filled once the pass wrote them into every block
		sc.itemLo = append(sc.itemLo, rows)
		sc.itemRows = append(sc.itemRows, r)
		sc.itemPos = append(sc.itemPos, pos)
		rows += r
	}

	sc.carve(rows)
	x := &sc.x
	for i := range items {
		it := &items[i]
		lo, pos := sc.itemLo[i], sc.itemPos[i]
		if it.prefilling() {
			for j, tok := range it.Prefill {
				m.embedRow(x.Row(lo+j), tok, pos+j)
			}
		} else {
			m.embedRow(x.Row(lo), it.Tok, pos)
		}
	}
	x.Quantize(m.DType)

	for bIdx := range m.blocks {
		blk := &m.blocks[bIdx]
		switch cfg.Family {
		case FamilyGPTJ:
			normed := m.applyNormInto(&sc.normed, blk.ln1, x)
			attn := m.attentionBatch(bIdx, blk, normed, items)
			ffn := m.mlpBatch(bIdx, blk, normed, items)
			tensor.AddInPlace(x, attn)
			tensor.AddInPlace(x, ffn)
		default:
			normed := m.applyNormInto(&sc.normed, blk.ln1, x)
			attn := m.attentionBatch(bIdx, blk, normed, items)
			tensor.AddInPlace(x, attn)
			normed2 := m.applyNormInto(&sc.normed2, blk.ln2, x)
			ffn := m.mlpBatch(bIdx, blk, normed2, items)
			tensor.AddInPlace(x, ffn)
		}
		x.Quantize(m.DType)
	}

	// Advance prefill cursors now that their KV rows exist, and collect the
	// items that emit a token this call: every decode item, plus prefill
	// ranges whose chunk completed the prompt (their final row is the
	// readout row — exactly the row a single-pass Prefill would read out).
	sc.emitIdx = sc.emitIdx[:0]
	for i := range items {
		it := &items[i]
		if it.prefilling() {
			it.State.prefillPos += len(it.Prefill)
			if it.State.prefillPos < it.State.promptLen {
				continue
			}
		}
		sc.emitIdx = append(sc.emitIdx, i)
	}
	if len(sc.emitIdx) == 0 {
		for range items {
			dst = append(dst, -1)
		}
		return dst
	}

	// Per-session readout over the emitting rows only: stream-norm record,
	// teacher-prior injection (γ·R·t̂ added to the pre-norm state — a sane
	// stream of norm ≈ R is dominated by it, a corrupted stream whose norm
	// exploded drowns it and the readout diverges), final norm, and the
	// tied-embedding projection.
	last := sc.last.Reuse(len(sc.emitIdx), cfg.Hidden)
	for e, i := range sc.emitIdx {
		it := &items[i]
		row := last.Row(e)
		copy(row, x.Row(sc.itemLo[i]+sc.itemRows[i]-1))
		var ss float64
		for _, v := range row {
			ss += float64(v) * float64(v)
		}
		it.State.lastStreamNorm = float32(math.Sqrt(ss))

		if cfg.TeacherWeight > 0 && m.streamNorm > 0 {
			emb := m.embed.Row(m.teacher[it.lastFedTok()])
			var tn float64
			for _, v := range emb {
				tn += float64(v) * float64(v)
			}
			if tn > 0 {
				scale := cfg.TeacherWeight * m.streamNorm / float32(math.Sqrt(tn))
				for c, v := range emb {
					row[c] += scale * v
				}
			}
		}
	}

	final := m.applyNormInto(sc.final, m.lnF, last)
	logits := tensor.MatMulTInto(sc.logits.Reuse(len(sc.emitIdx), cfg.Vocab), final, m.embed)
	logits.Scale(cfg.LogitScale)
	e := 0
	for i := range items {
		if e < len(sc.emitIdx) && sc.emitIdx[e] == i {
			tok := argmax(logits.Row(e))
			items[i].State.lastTok = tok
			dst = append(dst, tok)
			e++
			continue
		}
		dst = append(dst, -1)
	}
	return dst
}

// lastFedTok is the token occupying the item's final row — it selects the
// teacher prior at readout.
func (it *BatchItem) lastFedTok() int {
	if it.prefilling() {
		return it.Prefill[len(it.Prefill)-1]
	}
	return it.Tok
}

// checkToken panics on a token id outside the vocabulary.
func (m *Model) checkToken(tok int) {
	if tok < 0 || tok >= m.Cfg.Vocab {
		panic(fmt.Sprintf("model: token %d out of vocab %d", tok, m.Cfg.Vocab))
	}
}

// embedRow writes one embedding row (plus the OPT positional embedding).
func (m *Model) embedRow(row []float32, tok, pos int) {
	copy(row, m.embed.Row(tok))
	if m.Cfg.Family == FamilyOPT {
		for c, pv := range m.posEmb.Row(pos) {
			row[c] += pv
		}
	}
}

// applyLinearBatch computes the layer output into dst (resliced to fit),
// passes it through the precision gate, and runs each item's hooks on its
// row range.
func (m *Model) applyLinearBatch(dst *tensor.Tensor, ref LayerRef, l linear, x *tensor.Tensor, items []BatchItem) *tensor.Tensor {
	m.linearInto(dst, l, x)
	m.runBatchHooks(ref, SiteLinearOut, x, dst, items)
	return dst
}

// attentionBatch runs each item's row range of causal self-attention:
// shared batched K/Q/V projections, then per-item rope and KV append, and
// per-(item × head) scores/softmax/context over that session's own slab;
// each row depends only on its own session's q row and KV slab.
func (m *Model) attentionBatch(bIdx int, blk *block, x *tensor.Tensor, items []BatchItem) *tensor.Tensor {
	cfg := m.Cfg
	d := cfg.HeadDim()
	sc := m.scratch

	k := m.applyLinearBatch(&sc.k, LayerRef{bIdx, KProj}, blk.kProj, x, items)
	q := m.applyLinearBatch(&sc.q, LayerRef{bIdx, QProj}, blk.qProj, x, items)
	v := m.applyLinearBatch(&sc.v, LayerRef{bIdx, VProj}, blk.vProj, x, items)

	if cfg.Family != FamilyOPT {
		for i := range items {
			lo, rows, pos := sc.itemLo[i], sc.itemRows[i], sc.itemPos[i]
			for r := 0; r < rows; r++ {
				qrow, krow := q.Row(lo+r), k.Row(lo+r)
				for h := 0; h < cfg.Heads; h++ {
					m.rope.Apply(qrow[h*d:(h+1)*d], pos+r)
					m.rope.Apply(krow[h*d:(h+1)*d], pos+r)
				}
			}
		}
	}

	// Write each item's new K/V rows into its own lanes (past any borrowed
	// prefix): row r of the range sits at position pos+r and attends
	// causally to positions [0, pos+r].
	kl, vl := 2*bIdx*cfg.Heads, (2*bIdx+1)*cfg.Heads
	for i := range items {
		st := items[i].State
		lo, pos := sc.itemLo[i], sc.itemPos[i]
		for r := range sc.itemRows[i] {
			krow, vrow := k.Row(lo+r), v.Row(lo+r)
			for h := 0; h < cfg.Heads; h++ {
				ko, vo := st.at(kl+h, pos+r), st.at(vl+h, pos+r)
				copy(st.buf[ko:ko+d], krow[h*d:(h+1)*d])
				copy(st.buf[vo:vo+d], vrow[h*d:(h+1)*d])
			}
		}
	}

	ctxOut := &sc.ctx
	ctxOut.Zero()
	m.attnUnits(items, bIdx, q, ctxOut)
	ctxOut.Quantize(m.DType)
	return m.applyLinearBatch(&sc.attn, LayerRef{bIdx, OutProj}, blk.outProj, ctxOut, items)
}

// attnUnits runs every (item × head) unit of block bIdx's attention
// reduction: the unit reads its session's K/V — borrowed runs, then its own
// slab — and q rows, scores into the arena's one MaxSeq-row scratch, and
// accumulates into its item's rows of its head's columns of ctxOut, which
// the caller zeroed. The stride kernels run once per contiguous run of
// positions; that is the one-run result bit for bit, since each position's
// score is its own dot and the context accumulates position by position in
// order.
func (m *Model) attnUnits(items []BatchItem, bIdx int, q, ctxOut *tensor.Tensor) {
	cfg := m.Cfg
	sc := m.scratch
	d := cfg.HeadDim()
	scale := float32(1 / math.Sqrt(float64(d)))
	scores := sc.attnScores
	kl, vl := 2*bIdx*cfg.Heads, (2*bIdx+1)*cfg.Heads // head 0's key and value lanes
	for i := range items {
		st := items[i].State
		pos, rows, rowLo := sc.itemPos[i], sc.itemRows[i], sc.itemLo[i]
		for h := 0; h < cfg.Heads; h++ {
			hd := h * d
			for r := 0; r < rows; r++ {
				qrow := q.Row(rowLo + r)[hd : hd+d]
				limit := pos + r + 1 // causal: attend to positions <= own
				for lo := 0; lo < limit; {
					kr, end := st.run(kl+h, lo, limit)
					tensor.DotStride(scores[lo:], qrow, kr, d, end-lo, scale)
					lo = end
				}
				orow := ctxOut.Row(rowLo + r)[hd : hd+d]
				if sum := tensor.SoftmaxRow(scores[:limit]); sum > 0 {
					tensor.ScaleSlice(scores[:limit], 1/sum)
					for lo := 0; lo < limit; {
						vr, end := st.run(vl+h, lo, limit)
						tensor.AxpyStride(orow, vr, scores[lo:], d, end-lo)
						lo = end
					}
				}
			}
		}
	}
}

// mlpBatch is the family-specific MLP over the stacked batch rows with
// per-item range hooks.
func (m *Model) mlpBatch(bIdx int, blk *block, x *tensor.Tensor, items []BatchItem) *tensor.Tensor {
	sc := m.scratch
	switch m.Cfg.Family {
	case FamilyOPT, FamilyGPTJ:
		h := m.applyLinearBatch(&sc.ffnA, LayerRef{bIdx, FC1}, blk.fc1, x, items)
		m.Cfg.Activation.Apply(h)
		h.Quantize(m.DType)
		m.runBatchHooks(LayerRef{bIdx, FC1}, SiteActivationOut, nil, h, items)
		return m.applyLinearBatch(&sc.ffnOut, LayerRef{bIdx, FC2}, blk.fc2, h, items)
	case FamilyLlama:
		gate := m.applyLinearBatch(&sc.ffnA, LayerRef{bIdx, GateProj}, blk.gateProj, x, items)
		up := m.applyLinearBatch(&sc.ffnB, LayerRef{bIdx, UpProj}, blk.upProj, x, items)
		m.Cfg.Activation.Apply(gate)
		tensor.MulInPlace(gate, up)
		gate.Quantize(m.DType)
		m.runBatchHooks(LayerRef{bIdx, GateProj}, SiteActivationOut, nil, gate, items)
		return m.applyLinearBatch(&sc.ffnOut, LayerRef{bIdx, DownProj}, blk.downProj, gate, items)
	default:
		panic("model: unknown family")
	}
}
