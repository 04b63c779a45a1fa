// Package fault implements the statistical fault-injection framework of the
// paper (Section 2.3). Space is a model's fault-site geometry — every linear
// layer's output and weights, and the KV cache — and makes every site draw;
// the routing rule between those targets is TargetMix.Route. Plan picks an
// offline campaign's fault step by execution-time weight over the whole
// inference; the chaos engine picks a live session's step and draws through
// the same Space. The Injector flips bits of the stored FP16/FP32
// representation of one element — PyTorchFI-style injection reimplemented
// on the Go engine.
package fault

import (
	"fmt"
	"math/rand"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// Target selects what state a fault corrupts. The zero value is the
// classic transient activation flip, so existing plans and journals keep
// their meaning.
type Target int

const (
	// TargetActivation flips bits in one linear-layer output element at one
	// step — a transient fault, gone next step.
	TargetActivation Target = iota
	// TargetWeight flips bits in one stored weight element — a persistent
	// fault that corrupts every subsequent use of that weight until
	// reverted or the replica is rebuilt. It lands in the injector's model
	// only: the first write copies the matrix out of the shared weight set
	// (model.Model.Weight).
	TargetWeight
	// TargetKVCache flips bits in one resident KV-cache element of one
	// session's generation state — a semi-persistent fault that skews
	// attention for every remaining step of that session.
	TargetKVCache
)

// String implements fmt.Stringer.
func (t Target) String() string {
	switch t {
	case TargetWeight:
		return "weight"
	case TargetKVCache:
		return "kv"
	default:
		return "activation"
	}
}

// Site is one fault location: a target kind, a generation step, a layer
// reference, a flat element index, and the bit positions to flip.
//
// Element addressing per target:
//   - TargetActivation: flat index into the layer's output tensor at Step.
//   - TargetWeight: flat index into the layer's weight matrix (out×in); the
//     flip is applied when execution reaches Step.
//   - TargetKVCache: pos*Hidden + col into the block's K (Layer.Kind KProj)
//     or V (VProj) slab in logical position-major order; the injector
//     translates to the head-blocked slab layout at fire time.
type Site struct {
	Target Target
	Step   int
	Layer  model.LayerRef
	Elem   int
	Bits   []int
}

// String implements fmt.Stringer. The activation form is unchanged from
// earlier releases so journal greps keep working.
func (s Site) String() string {
	switch s.Target {
	case TargetWeight:
		return fmt.Sprintf("weight step=%d %s elem=%d bits=%v", s.Step, s.Layer, s.Elem, s.Bits)
	case TargetKVCache:
		return fmt.Sprintf("kv step=%d %s elem=%d bits=%v", s.Step, s.Layer, s.Elem, s.Bits)
	default:
		return fmt.Sprintf("step=%d %s elem=%d bits=%v", s.Step, s.Layer, s.Elem, s.Bits)
	}
}

// TargetMix sets the probability that a sampled fault targets weights or the
// KV cache; the remainder goes to transient activation flips. The zero value
// reproduces the activation-only sampling of earlier releases exactly (no
// extra RNG draws).
type TargetMix struct {
	Weight float64
	KV     float64
}

// IsZero reports whether the mix is all-activation.
func (t TargetMix) IsZero() bool { return t.Weight == 0 && t.KV == 0 }

// Validate reports a mix that is not a probability split: both shares must
// be finite and non-negative and sum to at most 1.
func (t TargetMix) Validate() error {
	if !(t.Weight >= 0 && t.KV >= 0 && t.Weight+t.KV <= 1) {
		return fmt.Errorf("fault: invalid target mix weight=%g kv=%g: shares must be in [0,1] and sum to at most 1", t.Weight, t.KV)
	}
	return nil
}

// Route maps a uniform draw u ∈ [0,1) to the target it selects: weight
// below Weight, KV below Weight+KV, activation above.
func (t TargetMix) Route(u float64) Target {
	switch {
	case u < t.Weight:
		return TargetWeight
	case u < t.Weight+t.KV:
		return TargetKVCache
	}
	return TargetActivation
}

// Space is the fault-site geometry of one model configuration: every linear
// layer's output width and weight size, and the bits a fault model flips in
// a storage format. Its draws place one fault at a step the caller chose;
// Plan (offline campaigns) and the chaos engine (live serving) only differ
// in how they choose that step.
type Space struct {
	Cfg         model.Config
	DType       numerics.DType
	Model       numerics.FaultModel
	layers      []model.LayerRef
	layerElems  []int // output width per layer (columns)
	perTokenSum int   // Σ layer widths
	weightElems []int // weight matrix size per layer (out×in)
	weightSum   int64 // Σ weight sizes
}

// NewSpace enumerates the fault sites of cfg for fault model fm in format d.
func NewSpace(cfg model.Config, d numerics.DType, fm numerics.FaultModel) Space {
	s := Space{Cfg: cfg, DType: d, Model: fm, layers: cfg.LinearLayers()}
	for _, ref := range s.layers {
		w := cfg.OutDim(ref.Kind)
		s.layerElems = append(s.layerElems, w)
		s.perTokenSum += w
		we := w * cfg.InDim(ref.Kind)
		s.weightElems = append(s.weightElems, we)
		s.weightSum += int64(we)
	}
	return s
}

// Activation draws a transient flip at step: a neuron uniform over one
// row of every linear layer's output, then the fault bits.
func (s *Space) Activation(rng *rand.Rand, step int) Site {
	return s.activation(step, 0, rng.Intn(s.perTokenSum), rng)
}

// activation resolves a per-token element offset in row rowInStep to
// (layer, element) and draws the fault bits.
func (s *Space) activation(step, rowInStep, offset int, rng *rand.Rand) Site {
	site := Site{Step: step}
	for i, w := range s.layerElems {
		if offset < w {
			site.Layer = s.layers[i]
			site.Elem = rowInStep*w + offset
			break
		}
		offset -= w
	}
	site.Bits = s.Model.PickBits(s.DType, rng)
	return site
}

// Weight draws a persistent flip of one weight element, uniform over every
// weight matrix, landing at step.
func (s *Space) Weight(rng *rand.Rand, step int) Site {
	site := Site{Target: TargetWeight, Step: step}
	e := rng.Int63n(s.weightSum)
	for i, we := range s.weightElems {
		if e < int64(we) {
			site.Layer = s.layers[i]
			site.Elem = int(e)
			break
		}
		e -= int64(we)
	}
	site.Bits = s.Model.PickBits(s.DType, rng)
	return site
}

// KV draws a flip of one KV-cache element at step: a uniform (position,
// channel) pair among the resident rows, K or V, and a uniform block.
func (s *Space) KV(rng *rand.Rand, step, resident int) Site {
	pos := rng.Intn(resident)
	col := rng.Intn(s.Cfg.Hidden)
	kind := model.KProj
	if rng.Intn(2) == 1 {
		kind = model.VProj
	}
	return Site{
		Target: TargetKVCache,
		Step:   step,
		Layer:  model.LayerRef{Block: rng.Intn(s.Cfg.Blocks), Kind: kind},
		Elem:   pos*s.Cfg.Hidden + col,
		Bits:   s.Model.PickBits(s.DType, rng),
	}
}

// Plan samples the fault sites of one inference so that fault *arrival is
// uniform in wall-clock time* on the reference hardware: the prefill pass
// (which computes over the whole prompt in parallel on a GPU) receives a
// time weight expressed in decode-step equivalents, and every decode step
// weighs one. This matches the paper's Section 4.2.2 argument that the
// first token generation is exposed in proportion to its share of execution
// time (<9%, Fig. 10). Plan chooses the step; its Space places the fault
// within it. Setting PrefillWeight equal to PromptLen recovers plain
// neuron-uniform sampling.
type Plan struct {
	Space
	PromptLen int
	GenTokens int
	// PrefillWeight is the execution-time weight of the prefill pass in
	// decode-step equivalents (from perfmodel.PrefillStepWeight).
	PrefillWeight float64
	// Mix routes a fraction of samples to weight / KV-cache targets; the
	// zero value keeps the plan activation-only. Set after NewPlan.
	Mix TargetMix
}

// NewPlan builds a sampling plan. prefillWeight <= 0 defaults to 1 (the
// prefill weighs like one decode step). It panics on degenerate
// configurations — campaign construction is programmer-controlled.
func NewPlan(cfg model.Config, promptLen, genTokens int, d numerics.DType, fm numerics.FaultModel, prefillWeight float64) *Plan {
	if promptLen <= 0 || genTokens <= 0 {
		panic("fault: need a non-empty prompt and at least one generated token")
	}
	if prefillWeight <= 0 {
		prefillWeight = 1
	}
	return &Plan{
		Space:     NewSpace(cfg, d, fm),
		PromptLen: promptLen, GenTokens: genTokens, PrefillWeight: prefillWeight,
	}
}

// TotalElements returns the number of candidate fault sites (neuron
// invocations across the whole inference), before the bit dimension.
func (p *Plan) TotalElements() int64 {
	return int64(p.PromptLen+p.GenTokens-1) * int64(p.perTokenSum)
}

// FirstTokenProbability returns the probability that a sampled fault lands
// in the prefill pass under the time-uniform model.
func (p *Plan) FirstTokenProbability() float64 {
	return p.PrefillWeight / (p.PrefillWeight + float64(p.GenTokens-1))
}

// Sample draws a fault site: first the target kind per Mix, then — for
// activation targets — step by execution-time weight and a uniform neuron
// within the step, then bit positions per the fault model. A zero Mix takes
// the historical all-activation path with an identical RNG consumption
// pattern.
func (p *Plan) Sample(rng *rand.Rand) Site {
	if !p.Mix.IsZero() {
		switch p.Mix.Route(rng.Float64()) {
		case TargetWeight:
			return p.SampleWeight(rng)
		case TargetKVCache:
			return p.SampleKV(rng)
		}
	}
	if rng.Float64() < p.FirstTokenProbability() {
		return p.SampleFirstToken(rng)
	}
	return p.SampleFollowing(rng)
}

// SampleWeight draws a persistent weight-corruption site: arrival step by
// execution-time weight (the flip lands mid-inference, including during the
// prefill), then a uniform element over every weight matrix.
func (p *Plan) SampleWeight(rng *rand.Rand) Site {
	step := 0
	if p.GenTokens > 1 && rng.Float64() >= p.FirstTokenProbability() {
		step = 1 + rng.Intn(p.GenTokens-1)
	}
	return p.Weight(rng, step)
}

// SampleKV draws a KV-cache corruption site at a uniform decode step (the
// cache only matters once it is consulted, step >= 1) among the rows filled
// when the step begins. It panics when the plan has no decode steps.
func (p *Plan) SampleKV(rng *rand.Rand) Site {
	if p.GenTokens < 2 {
		panic("fault: KV targets need at least two generated tokens")
	}
	step := 1 + rng.Intn(p.GenTokens-1)
	return p.KV(rng, step, p.PromptLen+step-1) // rows filled before step's KV append
}

// SampleFirstToken draws a site restricted to the prefill pass (step 0) —
// the Figure 11 campaign.
func (p *Plan) SampleFirstToken(rng *rand.Rand) Site {
	elem := int(rng.Int63n(int64(p.PromptLen) * int64(p.perTokenSum)))
	return p.activation(0, elem/p.perTokenSum, elem%p.perTokenSum, rng)
}

// SampleFollowing draws a site restricted to the following-token steps
// (step >= 1), uniform over steps and neurons (every decode step has the
// same element count and the same time weight).
func (p *Plan) SampleFollowing(rng *rand.Rand) Site {
	if p.GenTokens < 2 {
		panic("fault: no following tokens to sample")
	}
	return p.Activation(rng, 1+rng.Intn(p.GenTokens-1))
}

// Injector corrupts exactly one element at the planned site. After the run,
// Fired reports whether the site was reached and Original/Corrupted record
// the value transition (for per-site forensics). Weight targets additionally
// need M — the model whose weights the fault lands in; weight flips persist
// until Revert (or a rebuild) restores the original value. A KV-cache target
// flips the generation state it is given: the firing hook's (HookCtx.State)
// or Fire's argument.
type Injector struct {
	Site  Site
	DType numerics.DType
	// M is the model a weight injection mutates. Required for TargetWeight;
	// ignored for activation targets (those mutate the hook's output tensor
	// directly) and KV targets.
	M *model.Model

	Fired     bool
	Original  float32
	Corrupted float32
	reverted  bool
}

// NewInjector builds an injector for a sampled site. Callers planning weight
// targets must also set M before installing the hook.
func NewInjector(site Site, d numerics.DType) *Injector {
	return &Injector{Site: site, DType: d}
}

// Reset clears the fired state so the injector can be reused across runs.
func (inj *Injector) Reset() {
	inj.Fired = false
	inj.Original = 0
	inj.Corrupted = 0
	inj.reverted = false
}

// Revert undoes a fired persistent weight corruption, restoring the original
// element. It is idempotent and a no-op for transient targets (activation
// flips vanish with the tensor; KV flips die with the generation state).
// Campaigns call it after every weight-fault trial so the shared model is
// clean for the next one.
func (inj *Injector) Revert() {
	if !inj.Fired || inj.reverted || inj.Site.Target != TargetWeight {
		return
	}
	w := inj.M.Weight(inj.Site.Layer)
	w.Data[inj.Site.Elem] = inj.Original
	inj.reverted = true
}

// Hook returns the forward hook performing the injection. It fires at most
// once per inference (single-fault assumption, Section 2.3): activation
// targets fire on the planned layer's output; weight and KV targets fire on
// the first linear-layer hook of the planned step — the earliest moment the
// step is known to have begun — and mutate the model's weights / the firing
// item's generation state directly.
func (inj *Injector) Hook() model.Hook {
	return func(ctx model.HookCtx, out *tensor.Tensor) {
		if inj.Fired || ctx.Site != model.SiteLinearOut {
			return
		}
		switch inj.Site.Target {
		case TargetWeight:
			if ctx.Step != inj.Site.Step {
				return
			}
			inj.fireWeight()
		case TargetKVCache:
			if ctx.Step != inj.Site.Step {
				return
			}
			inj.fireKV(ctx.State)
		default:
			if ctx.Step != inj.Site.Step || ctx.Layer != inj.Site.Layer {
				return
			}
			if inj.Site.Elem >= len(out.Data) {
				// Defensive: a mis-planned element index must fail loudly, not
				// silently skip the injection and bias the campaign.
				panic(fmt.Sprintf("fault: element %d out of range %d at %v",
					inj.Site.Elem, len(out.Data), inj.Site))
			}
			inj.flip(&out.Data[inj.Site.Elem])
		}
	}
}

// Fire applies a weight or KV-cache fault immediately, outside any forward
// pass — the chaos engine's slice-boundary application path, where the
// mutation must land while no kernel is running. A KV target flips st, the
// state of the session it lands in; a weight target flips M and ignores st.
// Activation targets have no state to mutate outside a forward pass and must
// go through Hook.
func (inj *Injector) Fire(st *model.DecodeState) {
	switch inj.Site.Target {
	case TargetWeight:
		inj.fireWeight()
	case TargetKVCache:
		inj.fireKV(st)
	default:
		panic("fault: Fire is for weight/kv targets; activation faults fire via Hook")
	}
}

// fireWeight flips the planned weight element in place.
func (inj *Injector) fireWeight() {
	if inj.M == nil {
		panic("fault: weight target needs Injector.M")
	}
	w := inj.M.Weight(inj.Site.Layer)
	if inj.Site.Elem >= len(w.Data) {
		panic(fmt.Sprintf("fault: weight element %d out of range %d at %v",
			inj.Site.Elem, len(w.Data), inj.Site))
	}
	inj.flip(&w.Data[inj.Site.Elem])
}

// fireKV flips the planned KV-cache element of st (model.DecodeState.KVCell
// translates the logical pos*Hidden+col address to the slab layout). A
// state that borrows its prompt prefix from the prefix cache gets a private
// copy of those rows first, so the flip never reaches the cache entry or
// the other sessions reading it.
func (inj *Injector) fireKV(st *model.DecodeState) {
	if !st.Started() {
		panic("fault: kv target with no live generation state")
	}
	cell := st.KVCell(inj.Site.Layer.Block, inj.Site.Layer.Kind == model.VProj, inj.Site.Elem)
	if cell == nil {
		panic(fmt.Sprintf("fault: kv element %d beyond the resident rows at %v", inj.Site.Elem, inj.Site))
	}
	inj.flip(cell)
}

// flip corrupts *cell with the site's bits and records the transition.
func (inj *Injector) flip(cell *float32) {
	inj.Fired = true
	inj.Original = *cell
	inj.Corrupted = numerics.CorruptValue(inj.Original, inj.DType, inj.Site.Bits)
	*cell = inj.Corrupted
}
