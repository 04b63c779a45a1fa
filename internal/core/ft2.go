// Package core assembles the paper's contribution — the FT2 methodology:
//
//  1. identify critical layers from the architecture alone (the heuristic of
//     Section 4.1.2, implemented in internal/arch);
//  2. during the first token's prefill pass, correct NaN and record each
//     critical layer's activation range (Section 4.2);
//  3. for every following token, apply range restriction with the recorded
//     bounds scaled by a factor (default 2), clipping out-of-bound values to
//     the bound and NaN to zero (Section 4.3).
//
// No offline profiling, no training data: everything happens inside a single
// inference.
//
// The FT2 type is also the repository's one protection controller: the
// adaptive tier policies (ABFT, DMR, stacked) and the offline-bounds
// baselines are other policies compiled into the same per-layer-kind stage
// table and run by the same hook. Its protection state — the first-token
// bounds and the correction counters — is one ForkState that it works on in
// place: its own after Reset, or one a caller binds to protect or, for an
// unprotected prefill recording its trail, to observe. Only a serving prefill
// that feeds the prefix cache records a trail of how its bounds came to be: it
// opens with OpenPrefill, and Offer takes the trail back.
package core

import (
	"fmt"
	"math"

	"ft2/internal/abft"
	"ft2/internal/arch"
	"ft2/internal/model"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// Options tune FT2; the zero value plus Defaults() reproduces the paper's
// configuration. The knobs exist for the ablation studies (Fig. 9 scaling
// sweep, clip-mode and coverage ablations).
type Options struct {
	// ScaleFactor widens the first-token bounds (paper default 2).
	ScaleFactor float32
	// Mode selects the out-of-bound correction target (paper: ClipToBound).
	Mode protect.ClipMode
	// FirstTokenNaNCorrection keeps NaN correction active while profiling
	// the first token (paper: on; Fig. 11 ablates it).
	FirstTokenNaNCorrection bool
	// ProtectAllLayers covers every linear layer instead of only the
	// critical ones (the "naïve" ~2× overhead configuration of Section 4.1).
	ProtectAllLayers bool
}

// Defaults returns the paper's FT2 configuration.
func Defaults() Options {
	return Options{
		ScaleFactor:             2,
		Mode:                    protect.ClipToBound,
		FirstTokenNaNCorrection: true,
	}
}

// FT2 is the protection controller attached to a model: one forward hook
// that runs, for the layer kind at hand, the stages its policy compiled to —
// exact repair (ABFT checksum verify-and-repair, or DMR duplicated
// execution), then the range clamp, then the counters. Recomputation repairs
// transient faults precisely; the clamp still bounds whatever persistent
// weight/KV corruption leaves behind. Use Generate (not the model's) so
// per-inference bounds reset correctly.
type FT2 struct {
	m    *model.Model
	opts Options
	// stages is the policy compiled per layer kind at construction; the hook
	// indexes it with the kind it fires on.
	stages [model.NumLayerKinds]stage
	// learn says where the clamp's bounds come from: each inference's first
	// token (observed at step 0, enforced afterwards), or — false — a frozen
	// offline profile enforced from step 0.
	learn bool
	// correctNaN makes the clamp map NaN→0 (every method but the Ranger and
	// MaxiMals baselines, which rely on range checks alone).
	correctNaN bool
	// own is the state Reset rearms: its Bounds are the controller's
	// first-token store or the offline profile; it records no trail.
	// st is the state in force — &own, or one a caller bound — which the
	// hooks and every counter read and write in place.
	own       ForkState
	st        *ForkState
	observing bool // st was bound by Observe
	// chk and dmr implement the exact-repair stages and hold their counters;
	// nil when the policy has no such tier.
	chk    *abft.LinearChecker
	dmr    *protect.DMR
	handle model.HookHandle
}

// stage is what the hook does at one layer kind.
type stage struct {
	// repair is the exact-repair hook (the ABFT checker's or the DMR's), nil
	// for none.
	repair model.Hook
	// clamp marks the hook sites (indexed by model.Site) that are range
	// restricted.
	clamp [model.SiteActivationOut + 1]bool
}

// New builds the controller for the paper's policy — first-token range
// restriction on the family's critical layer kinds (every kind under
// opts.ProtectAllLayers) — without registering its hook; callers that
// interleave it with other hooks (the campaign runner puts the fault
// injector first) register it with Install. The controller is reusable
// across inferences — Reset or Bind rearm it.
func New(m *model.Model, opts Options) *FT2 {
	kinds := arch.CriticalKinds(m.Cfg.Family)
	if opts.ProtectAllLayers {
		kinds = m.Cfg.Family.LayerKinds()
	}
	return NewWithKinds(m, opts, kinds...)
}

// NewWithKinds builds a controller range-restricting exactly the given layer
// kinds (at their linear-output sites). Coverage is a constructor concern so
// that Options stays a comparable value type.
func NewWithKinds(m *model.Model, opts Options, kinds ...model.LayerKind) *FT2 {
	var tiers [model.NumLayerKinds]protect.Tier
	for _, k := range kinds {
		tiers[k] = protect.TierFT2
	}
	return build(m, opts, tiers, nil)
}

// NewHybrid builds the controller for an adaptive per-layer-kind policy:
// each kind gets the tier its vulnerability profile earned — range
// restriction, ABFT checksum repair, DMR, a stacked abft+ft2, or nothing. A
// nil policy is the paper's (New). refs carries the build-time ABFT reference
// sums; pass nil to capture them from m now (the model must still be
// pristine). It panics on a policy that does not compile for m's family —
// callers taking policies from outside check Policy.Compile at startup.
func NewHybrid(m *model.Model, opts Options, policy *protect.Policy, refs *abft.RefSums) *FT2 {
	if policy == nil {
		return New(m, opts)
	}
	tiers, err := policy.Compile(m.Cfg.Family)
	if err != nil {
		panic(err)
	}
	return build(m, opts, tiers, refs)
}

// NewOffline builds the controller for the offline-profiling baselines
// (Ranger, MaxiMals, Global Clipper, FT2 with offline bounds, leave-one-out
// coverage): the sites in cover are range restricted from step 0 against
// the frozen bounds store, scaled by opts.ScaleFactor and corrected per
// opts.Mode; nothing is learned online.
func NewOffline(m *model.Model, opts Options, cover map[arch.CoveragePoint]bool, bounds *protect.Store, correctNaN bool) *FT2 {
	f := newFT2(m, opts, bounds)
	f.correctNaN = correctNaN
	for pt, on := range cover {
		f.stages[pt.Kind].clamp[pt.Site] = on
	}
	return f
}

func newFT2(m *model.Model, opts Options, own *protect.Store) *FT2 {
	if opts.ScaleFactor < 1 {
		panic(fmt.Sprintf("core: scale factor %g < 1 would tighten bounds", opts.ScaleFactor))
	}
	f := &FT2{m: m, opts: opts, own: ForkState{Bounds: own}}
	f.st = &f.own
	return f
}

// build compiles a tier table into the stage table.
func build(m *model.Model, opts Options, tiers [model.NumLayerKinds]protect.Tier, refs *abft.RefSums) *FT2 {
	f := newFT2(m, opts, protect.NewStore())
	f.learn, f.correctNaN = true, true
	var abftKinds, dmrKinds []model.LayerKind
	for k, t := range tiers {
		kind := model.LayerKind(k)
		f.stages[k].clamp[model.SiteLinearOut] = t == protect.TierFT2 || t == protect.TierABFTFT2
		switch t {
		case protect.TierABFT, protect.TierABFTFT2:
			abftKinds = append(abftKinds, kind)
		case protect.TierDMR:
			dmrKinds = append(dmrKinds, kind)
		}
	}
	if len(abftKinds) > 0 {
		if refs == nil {
			refs = abft.CaptureRefSums(m, abftKinds...)
		}
		f.chk = abft.NewLinearChecker(m, refs, abftKinds...)
		f.setRepair(f.chk.Hook(), abftKinds)
	}
	if len(dmrKinds) > 0 {
		f.dmr = protect.NewDMR(m, dmrKinds...)
		f.setRepair(f.dmr.Hook(), dmrKinds)
	}
	return f
}

func (f *FT2) setRepair(h model.Hook, kinds []model.LayerKind) {
	for _, k := range kinds {
		f.stages[k].repair = h
	}
}

// Attach is New followed by Install: it registers FT2's forward hook on the
// model and returns the controller. Call Detach to remove it.
func Attach(m *model.Model, opts Options) *FT2 {
	f := New(m, opts)
	f.Install()
	return f
}

// Install registers FT2's forward hook on the model (after any hooks the
// caller registered first).
func (f *FT2) Install() { f.handle = f.m.RegisterHook(f.hook) }

// Hook returns the controller's forward hook without registering it, for
// per-session installation in batched decode (model.BatchItem.Hooks): one
// hook per controller, which protects or observes the state bound to it and
// sees only that session's rows.
func (f *FT2) Hook() model.Hook { return f.hook }

// Detach removes FT2's hook from the model.
func (f *FT2) Detach() { f.m.RemoveHook(f.handle) }

// Reset rearms the controller for a fresh full inference on its own state:
// per-inference bounds and clamp counters clear, and the hook profiles the
// next first token into the controller's own store again. The exact-repair
// counters survive — they are lifetime telemetry, collected via DrainCounts.
func (f *FT2) Reset() {
	if f.learn {
		f.own.Bounds.Reset()
	}
	f.own = ForkState{Bounds: f.own.Bounds}
	f.st, f.observing = &f.own, false
}

// ForkState is the protection-side state the clamp carries across decode steps,
// captured so a forked continuation reproduces a full run bit-for-bit:
// the bounds recorded from the inference's prefill, the first-token NaN
// correction count, and the following-token correction counters accumulated
// so far.
type ForkState struct {
	Bounds        *protect.Store
	FirstTokenNaN int
	// Trail is the row-by-row record behind Bounds and FirstTokenNaN, from
	// prompt row 0, which the prefix cache resumes later prompts from at any
	// depth. Only a prefill OpenPrefill opened to record one has it; it lives
	// in memory only — the wire encoding omits it. Nil everywhere else.
	Trail *protect.Trail
	Stats protect.CorrectionStats
	// ByKind carries the per-layer-kind correction breakdown. Callers that
	// only need the aggregate counters bit-identical (the campaign's golden
	// checkpoints) may leave it zero; the serving layer round-trips it so a
	// session's per-kind telemetry survives being parked and resumed.
	ByKind [model.NumLayerKinds]protect.CorrectionStats
}

// OpenPrefill is a prefill's first-token state as it opens: the fold of an
// immutable cached trail's rows [0, depth), in a view the prefill extends; with
// no trail, an empty store, and an empty trail to record into when record.
func OpenPrefill(trail *protect.Trail, depth int, record bool) ForkState {
	st := ForkState{Trail: trail.Prefix(depth)}
	if trail == nil && record {
		st.Trail = new(protect.Trail)
	}
	st.Bounds, st.FirstTokenNaN = st.Trail.At(depth)
	return st
}

// Offer takes back a finished prefill's trail for its prefix-cache entry, and
// whether the entry's KV is bare (nanFree: no NaN corrected). An unprotected
// prefill that saw a NaN offers no trail; a protected one would have fixed it.
func (st *ForkState) Offer(protected bool) (*protect.Trail, bool) {
	trail, nanFree := st.Trail, st.FirstTokenNaN == 0
	st.Trail = nil // decode never extends it
	if !protected && !nanFree {
		return nil, true
	}
	return trail, nanFree
}

// CaptureForkState snapshots the state in force — its bounds deep copied, so
// the capture stays valid across later Resets and Binds, and its counters. A
// capture only ever continues at a decode step, so it carries no trail.
func (f *FT2) CaptureForkState() ForkState {
	st := *f.st
	st.Bounds, st.Trail = st.Bounds.Clone(), nil
	return st
}

// Bind makes st the state the controller protects, in place, until the next
// Bind, Observe or Reset: the hooks learn into st.Bounds and st.Trail (when it
// has one) during a prefill and advance st's counters, so st is current after
// every step. A continuation at a decode step ≥ 1 reads st.Bounds without ever
// writing it, so one store may back many bound states at once; one still
// inside its prefill owns st.Bounds and st.Trail and keeps extending both.
func (f *FT2) Bind(st *ForkState) { f.st, f.observing = st, false }

// Observe is Bind for an unprotected prefill that records its cache entry's
// trail: the hook runs the learn pass alone on first-token rows, counting the
// NaNs it saw and left in st.FirstTokenNaN, and changes no value.
func (f *FT2) Observe(st *ForkState) { f.st, f.observing = st, true }

// Stats returns the corrections applied since attach (following tokens
// only; first-token NaN corrections are reported by FirstTokenNaNCount).
func (f *FT2) Stats() protect.CorrectionStats { return f.st.Stats }

// StatsByKind breaks the following-token corrections down by the layer kind
// they fired on, indexed by model.LayerKind.
func (f *FT2) StatsByKind() [model.NumLayerKinds]protect.CorrectionStats { return f.st.ByKind }

// FirstTokenNaNCount returns NaNs corrected during the last inference's
// first-token pass.
func (f *FT2) FirstTokenNaNCount() int { return f.st.FirstTokenNaN }

// ExactCounts is the since-last-drain telemetry of the exact-repair stages.
type ExactCounts struct {
	ABFT     abft.Stats
	DMRFixed int64
}

// DrainCounts returns the exact-repair stages' counters accumulated since
// the previous drain and resets them. They are not fork state: a repair is
// complete within its step. The serving scheduler drains once per slice from
// the replica-owning worker, so no atomics are needed here.
func (f *FT2) DrainCounts() ExactCounts {
	var c ExactCounts
	if f.chk != nil {
		c.ABFT = f.chk.DrainStats()
	}
	if f.dmr != nil {
		c.DMRFixed = int64(f.dmr.Detected)
		f.dmr.Detected = 0
	}
	return c
}

// Bounds exposes the raw (unscaled) bounds the hook currently consults:
// those captured from the last inference's first token, or the bound fork
// state's.
func (f *FT2) Bounds() *protect.Store { return f.st.Bounds }

// RefSums returns the ABFT reference sums the controller checks against, or
// nil when its policy has no abft tier.
func (f *FT2) RefSums() *abft.RefSums {
	if f.chk == nil {
		return nil
	}
	return f.chk.Refs()
}

// ProtectedSiteCount returns how many concrete layer instances the clamp
// covers on this model.
func (f *FT2) ProtectedSiteCount() int {
	n := 0
	for _, k := range f.m.Cfg.Family.LayerKinds() {
		if f.stages[k].clamp[model.SiteLinearOut] {
			n += f.m.Cfg.Blocks
		}
	}
	return n
}

// Generate runs a protected inference: bounds reset, first token profiled,
// following tokens range-restricted.
func (f *FT2) Generate(prompt []int, n int) []int {
	f.Reset()
	return f.m.Generate(prompt, n)
}

// GenerateInto is Generate writing the decoded tokens into dst[:0]; with a
// reused dst the protected steady-state generation is allocation-free (the
// bounds store clears in place, see protect.Store.Reset).
func (f *FT2) GenerateInto(dst []int, prompt []int, n int) []int {
	f.Reset()
	return f.m.GenerateInto(dst, prompt, n)
}

// hook runs the kind's stages in correction order: exact repair first,
// range restriction last (it bounds whatever remains), counting as it goes.
// At step 0 the range stage is the learn pass instead; an observing controller
// runs that pass alone, changing no value, and nothing on decode rows.
func (f *FT2) hook(ctx model.HookCtx, out *tensor.Tensor) {
	st := &f.stages[ctx.Layer.Kind]
	if st.repair != nil && !f.observing {
		st.repair(ctx, out)
	}
	if !st.clamp[ctx.Site] || f.observing && ctx.Step > 0 {
		return
	}
	key, fs := protect.SiteKey{Layer: ctx.Layer, Site: ctx.Site}, f.st
	if ctx.Step == 0 && (f.learn || f.observing) {
		// FirstTokenNaN counts the NaNs a protected pass corrected, or those
		// an observed one saw and left.
		fix := f.opts.FirstTokenNaNCorrection && !f.observing
		if nan := fs.Bounds.ObserveRows(key, out, ctx.Pos, fix, fs.Trail); fix || f.observing {
			fs.FirstTokenNaN += nan
		}
		return
	}
	// A site with no bounds (an offline profile that never saw it) is clamped
	// against an infinite range, which corrects NaNs alone.
	b, ok := fs.Bounds.Get(key)
	if !ok {
		b = protect.Bounds{Lo: float32(math.Inf(-1)), Hi: float32(math.Inf(1))}
	}
	c := protect.ClampCorrect(out.Data, b.Scale(f.opts.ScaleFactor), f.opts.Mode, f.correctNaN)
	fs.Stats.OutOfBound += c.OutOfBound
	fs.Stats.NaN += c.NaN
	fs.ByKind[ctx.Layer.Kind].OutOfBound += c.OutOfBound
	fs.ByKind[ctx.Layer.Kind].NaN += c.NaN
}
