package model

import "ft2/internal/tensor"

// arena holds the per-model scratch buffers the forward pass reuses across
// steps, so a decode step performs zero heap allocations. Every buffer is
// sized at construction for the worst case (a MaxSeq-row prefill pass) and
// resliced per pass via Tensor.Reuse.
//
// Ownership: the arena belongs to exactly one Model, and a Model is
// documented single-goroutine (campaigns clone one model per worker), so no
// synchronization is needed. Tensors handed to forward hooks alias these
// buffers — they are valid only for the duration of the hook call, and
// hooks that want to keep activations must copy them (every in-tree hook
// already does).
type arena struct {
	x       *tensor.Tensor // residual stream, rows × hidden
	normed  *tensor.Tensor // ln1 output
	normed2 *tensor.Tensor // ln2 output
	q, k, v *tensor.Tensor // attention projections, rows × hidden
	ctx     *tensor.Tensor // pre-out_proj attention context
	attn    *tensor.Tensor // out_proj output
	ffnA    *tensor.Tensor // fc1 / gate_proj output, rows × ffn
	ffnB    *tensor.Tensor // up_proj output, rows × ffn
	ffnOut  *tensor.Tensor // fc2 / down_proj output, rows × hidden
	last    *tensor.Tensor // emitting items' final-row residual copies, E × hidden
	final   *tensor.Tensor // final-norm output, E × hidden
	logits  *tensor.Tensor // readout, E × vocab

	// rowOut/rowIn are reusable tensor headers whose Data is re-aimed at
	// one item's row range at a time when its hooks run; see runBatchHooks.
	rowOut *tensor.Tensor
	rowIn  *tensor.Tensor

	// self is the one-item batch Prefill/PrefillChunk/DecodeStep run over
	// the active state, selfTok its result slot; see forwardActive.
	self    [1]BatchItem
	selfTok [1]int

	// Batch layout of the current forward pass: per-item first fused
	// row, row count, absolute start position, pre-append KV row count for
	// the current block, and the indices of items emitting a token this
	// call. Reused across calls.
	itemLo   []int
	itemRows []int
	itemPos  []int
	itemBase []int
	emitIdx  []int

	// attnScores is one (row, head) attention score row, MaxSeq floats.
	attnScores []float32
}

func newArena(cfg Config) *arena {
	s, h, f := cfg.MaxSeq, cfg.Hidden, cfg.FFN
	return &arena{
		x:       tensor.New(s, h),
		normed:  tensor.New(s, h),
		normed2: tensor.New(s, h),
		q:       tensor.New(s, h),
		k:       tensor.New(s, h),
		v:       tensor.New(s, h),
		ctx:     tensor.New(s, h),
		attn:    tensor.New(s, h),
		ffnA:    tensor.New(s, f),
		ffnB:    tensor.New(s, f),
		ffnOut:  tensor.New(s, h),
		last:    tensor.New(1, h),
		final:   tensor.New(1, h),
		logits:  tensor.New(1, cfg.Vocab),
		rowOut:  tensor.New(0, 0),
		rowIn:   tensor.New(0, 0),

		attnScores: make([]float32, s),
	}
}
