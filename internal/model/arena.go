package model

import "ft2/internal/tensor"

// arena holds the per-model scratch buffers the forward pass reuses across
// steps, so a decode step performs zero heap allocations.
//
// The eleven activation buffers of a block — x through ffnOut — live in one
// slab, carved per pass (carve) by the family's region table (planFor): a
// buffer's region is a column range of the pass's rows, and buffers whose
// lifetimes never overlap share one. The slab grows to the largest pass the
// model has run and never shrinks, so a pass no larger than an earlier one
// allocates nothing. The readout buffers (last, final, logits) have one row
// per emitting item, not per pass row, and grow on their own through
// Tensor.Reuse.
//
// Ownership: the arena belongs to exactly one Model — an execution context,
// never shared between replicas — and a Model is documented
// single-goroutine (campaigns run one replica per worker), so no
// synchronization is needed. Tensors handed to forward hooks alias these
// buffers — they are valid only for the duration of the hook call, and
// hooks that want to keep activations must copy them (every in-tree hook
// already does).
type arena struct {
	plan arenaPlan
	slab []float32

	x       tensor.Tensor  // residual stream, rows × hidden
	normed  tensor.Tensor  // ln1 output
	normed2 tensor.Tensor  // ln2 output
	q, k, v tensor.Tensor  // attention projections, rows × hidden
	ctx     tensor.Tensor  // pre-out_proj attention context
	attn    tensor.Tensor  // out_proj output
	ffnA    tensor.Tensor  // fc1 / gate_proj output, rows × ffn
	ffnB    tensor.Tensor  // up_proj output, rows × ffn
	ffnOut  tensor.Tensor  // fc2 / down_proj output, rows × hidden
	last    *tensor.Tensor // emitting items' final-row residual copies, E × hidden
	final   *tensor.Tensor // final-norm output, E × hidden
	logits  *tensor.Tensor // readout, E × vocab

	// rowOut/rowIn are reusable tensor headers whose Data is re-aimed at
	// one item's row range at a time when its hooks run; see runBatchHooks.
	rowOut *tensor.Tensor
	rowIn  *tensor.Tensor

	// self is the one-item batch forwardActive runs (Prefill, PrefillChunk,
	// DecodeStep), selfTok its result slot.
	self    [1]BatchItem
	selfTok [1]int

	// Batch layout of the current forward pass: per-item first fused
	// row, row count, absolute start position (the KV rows filled before
	// the pass), and the indices of items emitting a token this call.
	// Reused across calls.
	itemLo   []int
	itemRows []int
	itemPos  []int
	emitIdx  []int

	// attnScores is one (row, head) attention score row, MaxSeq floats.
	attnScores []float32
}

// The activation buffers a pass carves from the slab, in arena field order.
const (
	bufX = iota
	bufNormed
	bufNormed2
	bufQ
	bufK
	bufV
	bufCtx
	bufAttn
	bufFFNA
	bufFFNB
	bufFFNOut
	numBufs
)

// arenaPlan is a family's region table: buffer b occupies columns
// [off[b], off[b]+cols[b]) of a width-column slab row range — for a pass of
// R rows, elements [R·off[b], R·(off[b]+cols[b])) of the slab.
type arenaPlan struct {
	off, cols [numBufs]int
	width     int
}

// planFor lays out a family's buffers by lifetime. The residual x and ln1's
// output come first. In the attention, ctx is written after k's rows went
// into the KV slabs and out_proj after v's did, so ctx takes k's region and
// attn v's. The MLP runs after all five are dead except x — and, in
// GPT-J's parallel block, normed (the MLP's input) and attn (added after
// it) — so its buffers reuse the attention's columns, and ffnOut the columns
// of ln2's output, which its own input (ffnA) never touches. Every layer's
// input and output regions are disjoint. The slab is max(5H, 2H+2F) columns
// wide for Llama, max(5H, 2H+F) for OPT and max(5H, 3H+F) for GPT-J.
func planFor(cfg Config) arenaPlan {
	var p arenaPlan
	h, f := cfg.Hidden, cfg.FFN
	at := func(b, off, cols int) {
		p.off[b], p.cols[b] = off, cols
		p.width = max(p.width, off+cols)
	}
	at(bufX, 0, h)
	at(bufNormed, h, h)
	at(bufFFNOut, h, h)
	switch cfg.Family {
	case FamilyGPTJ:
		at(bufV, 2*h, h)
		at(bufAttn, 2*h, h)
		at(bufK, 3*h, h)
		at(bufCtx, 3*h, h)
		at(bufQ, 4*h, h)
		at(bufFFNA, 3*h, f)
	default:
		at(bufNormed2, h, h)
		at(bufK, 2*h, h)
		at(bufCtx, 2*h, h)
		at(bufQ, 3*h, h)
		at(bufV, 4*h, h)
		at(bufAttn, 4*h, h)
		at(bufFFNA, 2*h, f)
		if cfg.Family == FamilyLlama {
			at(bufFFNB, 2*h+f, f)
		}
	}
	return p
}

// bufs returns the activation buffers in plan order.
func (a *arena) bufs() [numBufs]*tensor.Tensor {
	return [numBufs]*tensor.Tensor{&a.x, &a.normed, &a.normed2, &a.q, &a.k, &a.v, &a.ctx, &a.attn, &a.ffnA, &a.ffnB, &a.ffnOut}
}

// carve aims every activation buffer at its region for a pass of rows rows,
// growing the slab first when the pass is larger than any before.
func (a *arena) carve(rows int) {
	if n := rows * a.plan.width; cap(a.slab) < n {
		a.slab = make([]float32, n)
	}
	for b, t := range a.bufs() {
		lo, hi := rows*a.plan.off[b], rows*(a.plan.off[b]+a.plan.cols[b])
		t.Rows, t.Cols, t.Data = rows, a.plan.cols[b], a.slab[lo:hi:hi]
	}
}

func newArena(cfg Config) *arena {
	return &arena{
		plan:   planFor(cfg),
		last:   tensor.New(0, 0),
		final:  tensor.New(0, 0),
		logits: tensor.New(0, 0),
		rowOut: tensor.New(0, 0),
		rowIn:  tensor.New(0, 0),

		attnScores: make([]float32, cfg.MaxSeq),
	}
}
