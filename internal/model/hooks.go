package model

import "ft2/internal/tensor"

// Site distinguishes where in the block a hook fires. Fault injection and
// most protections interpose on linear-layer outputs; Ranger protects
// activation outputs instead, so the engine exposes both sites.
type Site int

const (
	// SiteLinearOut fires on the raw output of a linear layer.
	SiteLinearOut Site = iota
	// SiteActivationOut fires on the output of the MLP activation that
	// follows FC1 (OPT/GPT-J) or GateProj (Llama family).
	SiteActivationOut
)

// String implements fmt.Stringer.
func (s Site) String() string {
	if s == SiteActivationOut {
		return "act_out"
	}
	return "linear_out"
}

// HookCtx describes the layer invocation a forward hook observes.
type HookCtx struct {
	Layer LayerRef
	Site  Site
	// Input is the tensor the layer consumed (nil at activation sites).
	// Redundant-execution protections recompute the layer output from it.
	Input *tensor.Tensor
	// Step is the generation step: 0 is the prefill pass that produces the
	// first token; step s>0 processes the s-th generated token.
	Step int
	// FirstToken is true during the prefill pass (Step == 0); FT2 profiles
	// bounds then and protects afterwards.
	FirstToken bool
	// Pos is the absolute sequence position of out's first row: a prefill
	// chunk's rows are prompt rows Pos, Pos+1, …, which is what lets FT2 key
	// its first-token bounds by row instead of by chunk.
	Pos int
	// State is the firing item's generation state, which a KV fault flips.
	State *DecodeState
}

// Hook observes — and may mutate in place — the output tensor of a linear
// layer, mirroring PyTorch forward hooks (the interposition point of
// PyTorchFI and of all the range-restriction protections). The tensor has
// one row per sequence position processed in this pass and one column per
// output neuron.
type Hook func(ctx HookCtx, out *tensor.Tensor)

// HookHandle identifies a registered hook for removal.
type HookHandle int

// RegisterHook appends a forward hook. Hooks run in registration order after
// every linear layer's output has been computed and passed through the
// precision gate — so an injector registered before a protector corrupts the
// value first and the protector then gets a chance to detect it, exactly the
// paper's fault/protection interleaving.
func (m *Model) RegisterHook(h Hook) HookHandle {
	m.nextHookID++
	m.hooks = append(m.hooks, h)
	m.hookIDs = append(m.hookIDs, m.nextHookID)
	return m.nextHookID
}

// RemoveHook unregisters a hook by handle; unknown handles are ignored.
func (m *Model) RemoveHook(h HookHandle) {
	for i, id := range m.hookIDs {
		if id == h {
			m.hooks = append(m.hooks[:i], m.hooks[i+1:]...)
			m.hookIDs = append(m.hookIDs[:i], m.hookIDs[i+1:]...)
			return
		}
	}
}

// ClearHooks removes every registered hook.
func (m *Model) ClearHooks() { m.hooks, m.hookIDs = m.hooks[:0], m.hookIDs[:0] }

// HookCount returns the number of registered hooks.
func (m *Model) HookCount() int { return len(m.hooks) }

// runBatchHooks is the one hook dispatcher: it fires each item's hooks, in
// order, against a view of that item's row range of out (and of in, for
// redundant-execution protections), so a hook observes the same tensor shape
// — and therefore the same flat neuron indexing — however its session was
// co-batched: 1 row for a decode step, C rows for a prefill chunk. Model-level
// hooks arrive here as the hook list of the single item Prefill/PrefillChunk/
// DecodeStep build. A prefill item's hooks run with FirstToken set, so FT2
// observes bounds over the range instead of clamping it. The views alias
// reusable headers in the scratch arena and are only valid for the duration
// of the hook call, like every hook tensor.
func (m *Model) runBatchHooks(ref LayerRef, site Site, in, out *tensor.Tensor, items []BatchItem) {
	sc := m.scratch
	for i := range items {
		it := &items[i]
		if len(it.Hooks) == 0 {
			continue
		}
		sc.rowOut.BindRowsView(out, sc.itemLo[i], sc.itemRows[i])
		ctx := HookCtx{Layer: ref, Site: site, Step: it.State.step, FirstToken: it.State.step == 0, Pos: sc.itemPos[i], State: it.State}
		if in != nil {
			sc.rowIn.BindRowsView(in, sc.itemLo[i], sc.itemRows[i])
			ctx.Input = sc.rowIn
		}
		for _, h := range it.Hooks {
			h(ctx, sc.rowOut)
		}
	}
}
