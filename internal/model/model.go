package model

import (
	"fmt"
	"math"
	"math/rand"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// linear is one weight matrix (out×in, PyTorch layout) plus optional bias.
type linear struct {
	w *tensor.Tensor
	b []float32
}

// norm holds LayerNorm (gamma+beta) or RMSNorm (gamma only) parameters.
type norm struct {
	gamma, beta []float32
}

// block is one decoder block. Layers not used by the family stay nil.
type block struct {
	ln1, ln2                     norm
	kProj, qProj, vProj, outProj linear
	fc1, fc2                     linear // OPT / GPT-J
	gateProj, upProj, downProj   linear // Llama family
}

// Model is an initialized decoder-only transformer ready for greedy
// generation.
//
// Concurrency contract: a Model is single-owner — exactly one goroutine may
// drive Prefill/DecodeStep/Generate/Checkpoint/Restore at a time, and hook
// registration belongs to that owner. Weights are written only during New,
// so any number of replicas of the same (cfg, seed, dtype) may run
// concurrently, and read-only artifacts (Snapshots, profiled bound stores)
// may be shared across replicas. Subsystems that juggle more generations
// than replicas (the campaign pool, the serving scheduler) time-slice
// sessions onto replicas with Checkpoint/Restore, which is bit-exact.
type Model struct {
	Cfg    Config
	DType  numerics.DType
	embed  *tensor.Tensor // vocab × hidden (tied LM head)
	posEmb *tensor.Tensor // maxSeq × hidden (OPT only)
	blocks []*block
	lnF    norm

	// teacher is a seeded random cycle over the non-special token ids
	// implementing the TeacherWeight next-token prior (see Config), and
	// streamNorm is the calibrated norm of a sane residual stream: the
	// teacher component is injected at that fixed scale, so a corrupted
	// stream whose norm has exploded swamps it under the final
	// normalization — confident margins for sane states, divergence for
	// extreme corruption, matching trained-model behaviour under faults.
	teacher    []int
	streamNorm float32

	// weightsF16 records that the weight matrices were switched to packed
	// binary16 storage (see weights.go).
	weightsF16 bool

	// hooks are the model-level forward hooks in registration order, with
	// their removal handles in hookIDs; Prefill/PrefillChunk/DecodeStep hand
	// them to the forward pass as the hook list of their single item.
	hooks      []Hook
	hookIDs    []HookHandle
	nextHookID HookHandle

	// st is the active generation state (see DecodeState); swapped per
	// session by the serving scheduler, lazily allocated on first Prefill.
	st *DecodeState

	// rope caches the rotary sin/cos factors for non-OPT families.
	rope *tensor.RopeTable
	// scratch is the reusable forward-pass buffer arena; see arena.go.
	scratch *arena
}

// kvCache stores one block's accumulated key/value state in two contiguous
// slabs preallocated to Heads×MaxSeq×HeadDim (= MaxSeq×Hidden) floats. The
// layout is head-blocked — element (head h, position p, channel c) lives at
// (h*MaxSeq+p)*HeadDim+c — so the attention inner loop streams one head's
// keys/values as a single contiguous run instead of hopping between
// per-position heap rows.
type kvCache struct {
	k, v []float32
	rows int // positions filled so far
}

// New builds a model from cfg with seeded deterministic weights and the
// given activation dtype. The same (cfg, seed) always yields identical
// weights regardless of GOMAXPROCS.
func New(cfg Config, seed int64, dtype numerics.DType) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := &Model{Cfg: cfg, DType: dtype}
	h := cfg.Hidden

	m.embed = tensor.New(cfg.Vocab, h)
	m.embed.RandNormal(rng, 0.08)
	// Give token groups structured channel signatures: tokens from one
	// vocabulary region carry extra energy in a group-specific channel
	// block. Different corpora (different token mixes) then excite
	// different activation subspaces, so per-layer activation ranges — and
	// hence profiled bounds — are genuinely dataset-dependent, the
	// phenomenon behind the paper's Figure 3 (real LLMs route different
	// content through different channels).
	const groupSpan = 32
	blockWidth := h / 4
	for tok := 0; tok < cfg.Vocab; tok++ {
		g := tok / groupSpan
		start := (g * 13 * blockWidth / 4) % h
		row := m.embed.Row(tok)
		for j := 0; j < blockWidth; j++ {
			row[(start+j)%h] += float32(rng.NormFloat64() * 0.18)
		}
	}
	if cfg.Family == FamilyOPT {
		m.posEmb = tensor.New(cfg.MaxSeq, h)
		m.posEmb.RandNormal(rng, 0.02)
	}

	for b := 0; b < cfg.Blocks; b++ {
		blk := &block{}
		blk.ln1 = newNorm(cfg, h)
		blk.ln2 = newNorm(cfg, h)
		for _, kind := range cfg.Family.LayerKinds() {
			l := m.initLinear(cfg, kind, rng)
			switch kind {
			case KProj:
				blk.kProj = l
			case QProj:
				blk.qProj = l
			case VProj:
				blk.vProj = l
			case OutProj:
				blk.outProj = l
			case FC1:
				blk.fc1 = l
			case FC2:
				blk.fc2 = l
			case GateProj:
				blk.gateProj = l
			case UpProj:
				blk.upProj = l
			case DownProj:
				blk.downProj = l
			}
		}
		m.blocks = append(m.blocks, blk)
	}
	m.lnF = newNorm(cfg, h)

	// Teacher map over ids [4, vocab): a single random cycle, so there are
	// no fixed points (no degenerate "x x x ..." generations), no special
	// tokens, and the orbit from any start covers the whole real vocabulary.
	const firstRealToken = 4
	order := rng.Perm(cfg.Vocab - firstRealToken)
	m.teacher = make([]int, cfg.Vocab)
	n := len(order)
	for i, tok := range order {
		m.teacher[firstRealToken+tok] = firstRealToken + order[(i+1)%n]
	}
	for i := 0; i < firstRealToken; i++ {
		m.teacher[i] = firstRealToken + order[i%n]
	}

	m.calibrateStreamNorm()
	return m, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg Config, seed int64, dtype numerics.DType) *Model {
	m, err := New(cfg, seed, dtype)
	if err != nil {
		panic(err)
	}
	return m
}

func newNorm(cfg Config, width int) norm {
	n := norm{gamma: make([]float32, width)}
	for i := range n.gamma {
		n.gamma[i] = 1
	}
	if cfg.Family != FamilyLlama {
		n.beta = make([]float32, width)
	}
	return n
}

// initLinear draws a weight matrix whose output scale reproduces the
// per-layer-kind value distributions of Figure 8: wide distributions (with a
// sizeable NaN-vulnerable fraction in ±(1,2)) for K/Q/FC1/GATE/UP, and tight
// near-zero distributions for V/OUT/FC2/DOWN. DOWN_PROJ additionally gets a
// few planted outlier rows reproducing the large-value channels of Figure 12
// (a documented property of trained Llama-family models).
func (m *Model) initLinear(cfg Config, kind LayerKind, rng *rand.Rand) linear {
	in, out := cfg.InDim(kind), cfg.OutDim(kind)
	w := tensor.New(out, in)

	// Inputs to each linear layer are normalized (post-LN) with roughly unit
	// RMS, so output std ≈ weightStd·sqrt(in). Choose weightStd to target the
	// desired output std per kind.
	var targetStd float64
	switch kind {
	case KProj, QProj:
		targetStd = 1.3 // wide: a large fraction of |values| in (1,2)
	case FC1, GateProj, UpProj:
		targetStd = 1.1
	case VProj:
		targetStd = 0.30 // tight near zero (critical layers, Fig. 8)
	case OutProj, FC2, DownProj:
		targetStd = 0.35
	}
	w.RandNormal(rng, targetStd/math.Sqrt(float64(in)))

	switch kind {
	case VProj, OutProj, FC2, DownProj:
		// Plant a handful of outlier output channels — dense rows with a
		// large weight scale, so the channel is *persistently* large across
		// tokens (the documented outlier-channel phenomenon of trained
		// transformers; Figure 12 shows it for DOWN_PROJ). Dense rows keep
		// the channel's distribution Gaussian: the first token's max is a
		// good bound estimate and the 2× scaled bound almost never clips
		// legitimate later values. The outliers also widen the profiled
		// bounds of the critical layers, which is what makes an uncorrected
		// extreme value destructive even after a downstream layer clamps
		// the fallout (the V_PROJ criticality mechanism of Figure 6).
		nOutliers := out / 32
		if nOutliers < 2 {
			nOutliers = 2
		}
		// V's outliers stay moderate (its corruption is clamped at the
		// source when covered); the residual-stream writers get larger
		// outlier channels so their profiled bounds admit genuinely
		// destructive clamped rows when a critical layer is left exposed.
		outlierScale := 30.0
		if kind == VProj {
			outlierScale = 6
		}
		outlierStd := outlierScale * targetStd / math.Sqrt(float64(in))
		for i := 0; i < nOutliers; i++ {
			row := rng.Intn(out)
			for j := 0; j < in; j++ {
				w.Set(row, j, float32(rng.NormFloat64()*outlierStd))
			}
		}
	}

	l := linear{w: w}
	if cfg.layerHasBias(kind) {
		l.b = make([]float32, out)
		for i := range l.b {
			l.b[i] = float32(rng.NormFloat64() * 0.01)
		}
	}
	return l
}

// linearByRef resolves a layer reference to its parameters.
func (m *Model) linearByRef(ref LayerRef) linear {
	blk := m.blocks[ref.Block]
	switch ref.Kind {
	case KProj:
		return blk.kProj
	case QProj:
		return blk.qProj
	case VProj:
		return blk.vProj
	case OutProj:
		return blk.outProj
	case FC1:
		return blk.fc1
	case FC2:
		return blk.fc2
	case GateProj:
		return blk.gateProj
	case UpProj:
		return blk.upProj
	case DownProj:
		return blk.downProj
	default:
		panic("model: unknown layer kind")
	}
}

// RecomputeLinear re-executes a linear layer on the given input and returns
// the freshly computed, precision-gated output — the redundant execution a
// duplication-in-place protection compares against. It does not run hooks.
func (m *Model) RecomputeLinear(ref LayerRef, x *tensor.Tensor) *tensor.Tensor {
	return m.RecomputeLinearInto(tensor.New(0, 0), ref, x)
}

// RecomputeLinearInto is RecomputeLinear writing into a caller-owned
// scratch tensor (reshaped as needed), so redundant-execution protections
// can run allocation-free on the decode hot path.
func (m *Model) RecomputeLinearInto(out *tensor.Tensor, ref LayerRef, x *tensor.Tensor) *tensor.Tensor {
	if ref.Block < 0 || ref.Block >= len(m.blocks) {
		panic(fmt.Sprintf("model: RecomputeLinear block %d out of range", ref.Block))
	}
	l := m.linearByRef(ref)
	if l.w == nil {
		panic(fmt.Sprintf("model: layer %v not present in family %v", ref, m.Cfg.Family))
	}
	return m.linearInto(out, l, x)
}

// linearInto computes the layer output into dst (resliced to fit) and passes
// it through the precision gate.
func (m *Model) linearInto(dst *tensor.Tensor, l linear, x *tensor.Tensor) *tensor.Tensor {
	dst.Reuse(x.Rows, l.w.Rows)
	tensor.LinearInto(dst, x, l.w, l.b)
	dst.Quantize(m.DType)
	return dst
}

func (m *Model) applyNormInto(dst *tensor.Tensor, n norm, x *tensor.Tensor) *tensor.Tensor {
	dst.Reuse(x.Rows, x.Cols)
	if m.Cfg.Family == FamilyLlama {
		return tensor.RMSNormInto(dst, x, n.gamma, 1e-6)
	}
	return tensor.LayerNormInto(dst, x, n.gamma, n.beta, 1e-5)
}

// ensureRuntime lazily builds the shared forward-pass machinery (scratch
// arena, rope table) without touching generation state, so batched decode
// over caller-owned DecodeStates can prepare a freshly built model too.
func (m *Model) ensureRuntime() {
	if m.scratch == nil {
		m.scratch = newArena(m.Cfg)
	}
	if m.rope == nil && m.Cfg.Family != FamilyOPT {
		m.rope = tensor.NewRopeTable(m.Cfg.MaxSeq, m.Cfg.HeadDim(), 10000)
	}
}

// resetState clears the active generation state for a fresh generation,
// lazily building the state, slab cache, and scratch arena on first use. The
// slabs are preallocated once to MaxSeq capacity and only their fill
// counters reset, so repeated generations never touch the allocator.
func (m *Model) resetState() {
	m.ensureRuntime()
	if m.st == nil {
		m.st = m.NewDecodeState()
	}
	m.st.Reset()
}

// Prefill resets the generation state and processes the whole prompt in a
// single pass (the paper's "first token generation"), returning the first
// greedily decoded token. It is the resumable-generation counterpart of
// Generate's opening pass: callers drive the following tokens one at a time
// with DecodeStep and may snapshot the state between steps with Checkpoint.
//
// Prefill is exactly BeginPrefill followed by one all-of-the-prompt
// PrefillChunk, so single-pass and chunked prefills share one code path and
// produce bit-identical state (each KV row is computed from the same inputs
// in the same FP order regardless of which chunk carried it, and causal
// attention never looks past a row's own position).
func (m *Model) Prefill(prompt []int) int {
	m.BeginPrefill(len(prompt))
	tok, _ := m.PrefillChunk(prompt)
	return tok
}

// BeginPrefill resets the generation state and opens a chunked prefill for a
// prompt of n tokens. The caller then feeds the prompt through one or more
// PrefillChunk calls (optionally seeding a cached prefix first with
// ResumePrefillPrefix); until the final chunk completes the state is
// mid-prefill and DecodeStep/Checkpoint panic.
func (m *Model) BeginPrefill(n int) {
	if n <= 0 {
		panic("model: empty prompt")
	}
	if n > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("model: prompt %d exceeds max seq %d", n, m.Cfg.MaxSeq))
	}
	m.resetState()
	m.st.promptLen = n
}

// ResumePrefillPrefix seeds a just-begun chunked prefill with a cached KV
// prefix: the snapshot's rows are copied into the slabs and the prefill
// cursor advances past them, so subsequent PrefillChunk calls compute only
// the remaining suffix. The snapshot (typically a Snapshot.Prefix view from
// the serving prefix cache) must hold KV rows for exactly the prompt's first
// Rows() tokens — the caller guarantees the token match; this function
// checks architecture and that at least one row is left to compute (the
// readout needs the final row's residual stream, which snapshots don't
// carry). A zero-row snapshot is a no-op.
func (m *Model) ResumePrefillPrefix(s *Snapshot) {
	st := m.st
	if st == nil || st.promptLen == 0 || st.prefillPos != 0 {
		panic("model: ResumePrefillPrefix outside a just-begun prefill")
	}
	cfg := m.Cfg
	if s.family != cfg.Family || s.blocks != cfg.Blocks || s.hidden != cfg.Hidden || s.maxSeq != cfg.MaxSeq || s.headDim != cfg.HeadDim() {
		panic(fmt.Sprintf("model: snapshot of a %s %d×%d/%d-seq model restored into %s",
			s.family, s.blocks, s.hidden, s.maxSeq, cfg.Name))
	}
	if s.rows >= st.promptLen {
		panic(fmt.Sprintf("model: cached prefix %d rows leaves no suffix for a %d-token prompt", s.rows, st.promptLen))
	}
	if s.rows == 0 {
		return
	}
	d := s.headDim
	stride := s.srcStride()
	for b := range st.kv {
		for h := 0; h < cfg.Heads; h++ {
			copy(st.kv[b].k[h*cfg.MaxSeq*d:], s.k[b][h*stride*d:h*stride*d+s.rows*d])
			copy(st.kv[b].v[h*cfg.MaxSeq*d:], s.v[b][h*stride*d:h*stride*d+s.rows*d])
		}
		st.kv[b].rows = s.rows
	}
	st.prefillPos = s.rows
}

// PrefillChunk advances an open prefill by the given consecutive prompt
// tokens (the slice starting at position PrefillPos). Non-final chunks run
// only the decoder stack — their purpose is the KV rows — and return (0,
// false). The chunk completing the prompt additionally runs the readout and
// returns the first decoded token with done=true, leaving the state exactly
// as a single-pass Prefill of the whole prompt would. A chunk that would
// overrun the prompt, an empty chunk, or a call without an open prefill
// panics.
func (m *Model) PrefillChunk(tokens []int) (tok int, done bool) {
	st := m.st
	if st == nil || st.promptLen == 0 || st.prefillPos >= st.promptLen {
		panic("model: PrefillChunk without an open prefill")
	}
	if len(tokens) == 0 {
		panic("model: empty prefill chunk")
	}
	tok = m.forwardActive(BatchItem{State: st, Prefill: tokens})
	if tok < 0 {
		return 0, false
	}
	return tok, true
}

// forwardActive runs the forward pass over the active state as a one-item
// batch carrying the model-level hooks. The item lives in the scratch arena,
// so a step allocates nothing.
func (m *Model) forwardActive(it BatchItem) int {
	sc := m.scratch
	it.Hooks = m.hooks
	sc.self[0] = it
	tok := m.forwardBatch(sc.self[:], sc.selfTok[:0])[0]
	sc.self[0] = BatchItem{} // do not retain the caller's prompt
	return tok
}

// Started reports whether the model holds live generation state — a
// Prefill or Restore happened — i.e. whether DecodeStep may be called.
func (m *Model) Started() bool { return m.st.Started() }

// SeqLen returns the sequence positions currently occupied (prompt plus
// decoded steps); the next DecodeStep claims position SeqLen, which must
// stay below Cfg.MaxSeq.
func (m *Model) SeqLen() int { return m.st.SeqLen() }

// DecodeStep runs one decode step: it feeds tok (normally the token the
// previous step returned) as the next sequence position against the KV
// cache and returns the greedily decoded next token. The step counter the
// hooks observe advances by one per call; the first call after Prefill is
// step 1.
func (m *Model) DecodeStep(tok int) int {
	if !m.st.Started() {
		if m.st.Prefilling() {
			panic("model: DecodeStep mid-prefill")
		}
		panic("model: DecodeStep before Prefill or Restore")
	}
	return m.forwardActive(BatchItem{State: m.st, Tok: tok})
}

// Generate greedily decodes n tokens after the prompt, invoking forward
// hooks at every linear layer. The prompt itself is processed in a single
// prefill pass; each following token is a single-row pass against the KV
// cache. The returned slice is freshly allocated; campaign hot paths use
// GenerateInto instead.
func (m *Model) Generate(prompt []int, n int) []int {
	return m.GenerateInto(make([]int, 0, n), prompt, n)
}

// GenerateInto is Generate writing the decoded tokens into dst[:0] (grown if
// its capacity is short). With a caller-reused dst of capacity ≥ n the
// steady-state generation performs zero heap allocations; the returned slice
// aliases dst and is valid until the caller's next GenerateInto with it.
func (m *Model) GenerateInto(dst []int, prompt []int, n int) []int {
	if len(prompt)+n > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("model: prompt %d + generate %d exceeds max seq %d", len(prompt), n, m.Cfg.MaxSeq))
	}
	dst = dst[:0]
	tok := m.Prefill(prompt)
	dst = append(dst, tok)
	for s := 1; s < n; s++ {
		tok = m.DecodeStep(tok)
		dst = append(dst, tok)
	}
	return dst
}

// StepRows returns the number of sequence rows processed at generation step
// `step` for a prompt of the given length: the prefill pass processes the
// whole prompt, every later step one token.
func StepRows(promptLen, step int) int {
	if step == 0 {
		return promptLen
	}
	return 1
}

func argmax(xs []float32) int {
	best, bestV := 0, float32(math.Inf(-1))
	for i, v := range xs {
		if !math.IsNaN(float64(v)) && v > bestV {
			bestV = v
			best = i
		}
	}
	return best
}
