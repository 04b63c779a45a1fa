// Package fault implements the statistical fault-injection framework of the
// paper (Section 2.3): uniform sampling of fault sites over every linear
// layer output across an entire inference, and a forward-hook injector that
// flips bits of the stored FP16/FP32 representation of one neuron —
// PyTorchFI-style injection reimplemented on the Go engine.
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
	// reverted or the replica is rebuilt.
	TargetWeight
	// TargetKVCache flips bits in one resident KV-cache element of the live
	// generation — a semi-persistent fault that skews attention for every
	// remaining step of that session.
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

// Plan enumerates the fault-site space of one inference configuration and
// samples sites so that fault *arrival is uniform in wall-clock time* on the
// reference hardware: the prefill pass (which computes over the whole
// prompt in parallel on a GPU) receives a time weight expressed in
// decode-step equivalents, and every decode step weighs one. This matches
// the paper's Section 4.2.2 argument that the first token generation is
// exposed in proportion to its share of execution time (<9%, Fig. 10).
// Within a step, the corrupted neuron is chosen uniformly over every linear
// layer's output elements. Setting PrefillWeight equal to PromptLen
// recovers plain neuron-uniform sampling.
type Plan struct {
	Cfg       model.Config
	PromptLen int
	GenTokens int
	DType     numerics.DType
	Model     numerics.FaultModel
	// PrefillWeight is the execution-time weight of the prefill pass in
	// decode-step equivalents (from perfmodel.PrefillStepWeight).
	PrefillWeight float64
	// Mix routes a fraction of samples to weight / KV-cache targets; the
	// zero value keeps the plan activation-only. Set after NewPlan.
	Mix TargetMix

	layers      []model.LayerRef
	layerElems  []int // output width per layer (columns)
	perTokenSum int   // Σ layer widths
	virtualRows int   // promptLen + genTokens - 1
	weightElems []int // weight matrix size per layer (out×in)
	weightSum   int64 // Σ weight sizes
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
	p := &Plan{
		Cfg: cfg, PromptLen: promptLen, GenTokens: genTokens,
		DType: d, Model: fm, PrefillWeight: prefillWeight,
		layers: cfg.LinearLayers(),
	}
	for _, ref := range p.layers {
		w := cfg.OutDim(ref.Kind)
		p.layerElems = append(p.layerElems, w)
		p.perTokenSum += w
		we := cfg.OutDim(ref.Kind) * cfg.InDim(ref.Kind)
		p.weightElems = append(p.weightElems, we)
		p.weightSum += int64(we)
	}
	p.virtualRows = promptLen + genTokens - 1
	return p
}

// TotalElements returns the number of candidate fault sites (neuron
// invocations across the whole inference), before the bit dimension.
func (p *Plan) TotalElements() int64 {
	return int64(p.virtualRows) * int64(p.perTokenSum)
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
		u := rng.Float64()
		switch {
		case u < p.Mix.Weight:
			return p.SampleWeight(rng)
		case u < p.Mix.Weight+p.Mix.KV:
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
	site := Site{Target: TargetWeight}
	if p.GenTokens > 1 && rng.Float64() >= p.FirstTokenProbability() {
		site.Step = 1 + rng.Intn(p.GenTokens-1)
	}
	e := rng.Int63n(p.weightSum)
	for i, we := range p.weightElems {
		if e < int64(we) {
			site.Layer = p.layers[i]
			site.Elem = int(e)
			break
		}
		e -= int64(we)
	}
	site.Bits = p.Model.PickBits(p.DType, rng)
	return site
}

// SampleKV draws a KV-cache corruption site: a decode step (the cache only
// matters once it is consulted, step >= 1), a uniform block, K or V, and a
// uniform resident (position, channel) pair among the rows filled when the
// step begins. It panics when the plan has no decode steps.
func (p *Plan) SampleKV(rng *rand.Rand) Site {
	if p.GenTokens < 2 {
		panic("fault: KV targets need at least two generated tokens")
	}
	step := 1 + rng.Intn(p.GenTokens-1)
	resident := p.PromptLen + step - 1 // rows filled before step's KV append
	pos := rng.Intn(resident)
	col := rng.Intn(p.Cfg.Hidden)
	kind := model.KProj
	if rng.Intn(2) == 1 {
		kind = model.VProj
	}
	return Site{
		Target: TargetKVCache,
		Step:   step,
		Layer:  model.LayerRef{Block: rng.Intn(p.Cfg.Blocks), Kind: kind},
		Elem:   pos*p.Cfg.Hidden + col,
		Bits:   p.Model.PickBits(p.DType, rng),
	}
}

// SampleFirstToken draws a site restricted to the prefill pass (step 0) —
// the Figure 11 campaign.
func (p *Plan) SampleFirstToken(rng *rand.Rand) Site {
	elem := int(rng.Int63n(int64(p.PromptLen) * int64(p.perTokenSum)))
	rowInStep := elem / p.perTokenSum
	return p.buildSite(0, rowInStep, elem%p.perTokenSum, rng)
}

// SampleFollowing draws a site restricted to the following-token steps
// (step >= 1), uniform over steps and neurons (every decode step has the
// same element count and the same time weight).
func (p *Plan) SampleFollowing(rng *rand.Rand) Site {
	if p.GenTokens < 2 {
		panic("fault: no following tokens to sample")
	}
	step := 1 + rng.Intn(p.GenTokens-1)
	return p.buildSite(step, 0, rng.Intn(p.perTokenSum), rng)
}

// buildSite resolves a per-token element offset to (layer, element) and
// draws the fault bits.
func (p *Plan) buildSite(step, rowInStep, offset int, rng *rand.Rand) Site {
	site := Site{Step: step}
	for i, w := range p.layerElems {
		if offset < w {
			site.Layer = p.layers[i]
			site.Elem = rowInStep*w + offset
			break
		}
		offset -= w
	}
	site.Bits = p.Model.PickBits(p.DType, rng)
	return site
}

// Injector corrupts exactly one element at the planned site. After the run,
// Fired reports whether the site was reached and Original/Corrupted record
// the value transition (for per-site forensics). Weight and KV-cache targets
// additionally need M — the model whose state the fault lands in; weight
// flips persist until Revert (or a rebuild) restores the original value.
type Injector struct {
	Site  Site
	DType numerics.DType
	// M is the model the injection mutates. Required for TargetWeight and
	// TargetKVCache; ignored for activation targets (those mutate the hook's
	// output tensor directly).
	M *model.Model

	Fired     bool
	Original  float32
	Corrupted float32
	reverted  bool
}

// NewInjector builds an injector for a sampled site. Callers planning weight
// or KV-cache targets must also set M before installing the hook.
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
// step is known to have begun — and mutate the model / generation state
// directly.
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
			inj.fireKV()
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
			inj.Fired = true
			inj.Original = out.Data[inj.Site.Elem]
			inj.Corrupted = numerics.CorruptValue(inj.Original, inj.DType, inj.Site.Bits)
			out.Data[inj.Site.Elem] = inj.Corrupted
		}
	}
}

// Fire applies a weight or KV-cache fault immediately, outside any forward
// pass — the chaos engine's slice-boundary application path, where the
// mutation must land while no kernel is running. Activation targets have no
// state to mutate outside a forward pass and must go through Hook.
func (inj *Injector) Fire() {
	switch inj.Site.Target {
	case TargetWeight:
		inj.fireWeight()
	case TargetKVCache:
		inj.fireKV()
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
	inj.Fired = true
	inj.Original = w.Data[inj.Site.Elem]
	inj.Corrupted = numerics.CorruptValue(inj.Original, inj.DType, inj.Site.Bits)
	w.Data[inj.Site.Elem] = inj.Corrupted
}

// fireKV flips the planned KV-cache element of the model's active
// generation state, translating the logical pos*Hidden+col address to the
// head-blocked slab layout. A state that borrows its prompt prefix from the
// prefix cache gets a private copy of those rows first (KVSlabs), so the
// flip never reaches the cache entry or the other sessions reading it.
func (inj *Injector) fireKV() {
	if inj.M == nil {
		panic("fault: kv target needs Injector.M")
	}
	st := inj.M.State()
	if st == nil || !st.Started() {
		panic("fault: kv target with no live generation state")
	}
	cfg := inj.M.Cfg
	slabK, slabV, rows, pitch := st.KVSlabs(inj.Site.Layer.Block)
	slab := slabK
	if inj.Site.Layer.Kind == model.VProj {
		slab = slabV
	}
	pos, col := inj.Site.Elem/cfg.Hidden, inj.Site.Elem%cfg.Hidden
	if pos >= rows {
		panic(fmt.Sprintf("fault: kv position %d beyond %d resident rows at %v",
			pos, rows, inj.Site))
	}
	hd := cfg.HeadDim()
	off := (col/hd*pitch+pos)*hd + col%hd
	inj.Fired = true
	inj.Original = slab[off]
	inj.Corrupted = numerics.CorruptValue(inj.Original, inj.DType, inj.Site.Bits)
	slab[off] = inj.Corrupted
}
