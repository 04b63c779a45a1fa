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
// table and run by the same hook.
package core

import (
	"fmt"

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
	// own is the store Reset rearms: the controller's first-token store, or
	// the offline profile. bounds is the store in force — own, or a shared
	// read-only store a forked continuation swapped in (decode steps never
	// write it). The learn pass observes into it; the clamp reads table.
	own, bounds *protect.Store
	// table is bounds already scaled, dense by (block, kind, site) and sized
	// from the model: a clamp fire costs an index, not a lock, a map hash and
	// a Scale. Reset, ResumeFork and every learn-pass fire — whatever swaps or
	// widens bounds — drop tableOK, and the next clamp refills the table first.
	table   []siteBounds
	tableOK bool
	// trail is where the first-token pass records which prompt rows widened
	// which bounds (protect.Trail): the controller's own after Reset, or the
	// one a mid-prefill fork state brought along.
	ownTrail, trail *protect.Trail
	ftNaN           int // NaNs corrected during the first token
	stats           protect.CorrectionStats
	// byKind breaks the following-token corrections down by the layer kind
	// they fired on — the per-layer-kind protection telemetry the serving
	// layer exports. Fixed-size array: updating it on the hook hot path
	// never allocates.
	byKind [model.NumLayerKinds]protect.CorrectionStats
	// chk and dmr implement the exact-repair stages and hold their counters;
	// nil when the policy has no such tier.
	chk    *abft.LinearChecker
	dmr    *protect.DMR
	handle model.HookHandle
}

// siteBounds is one table entry; ok is false where bounds holds nothing.
type siteBounds struct {
	b  protect.Bounds
	ok bool
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
// across inferences — Reset or ResumeFork rearm it.
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
	f := &FT2{m: m, opts: opts, own: own, bounds: own, ownTrail: new(protect.Trail)}
	f.trail = f.ownTrail
	f.table = make([]siteBounds, m.Cfg.Blocks*model.NumLayerKinds*len(f.stages[0].clamp))
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
// per-session installation in batched decode (model.BatchItem.Hooks): each
// session's controller observes and corrects only that session's rows while
// every controller shares the same read-only bounds store.
func (f *FT2) Hook() model.Hook { return f.hook }

// Detach removes FT2's hook from the model.
func (f *FT2) Detach() { f.m.RemoveHook(f.handle) }

// Reset rearms the controller for a fresh full inference: per-inference
// bounds and clamp counters clear, and the hook profiles the next first token
// into the controller's own store again. The exact-repair counters survive —
// they are lifetime telemetry, collected via DrainCounts.
func (f *FT2) Reset() {
	if f.learn {
		f.own.Reset()
	}
	f.ownTrail.Reset()
	f.bounds, f.trail, f.tableOK = f.own, f.ownTrail, false
	f.ftNaN = 0
	f.stats = protect.CorrectionStats{}
	f.byKind = [model.NumLayerKinds]protect.CorrectionStats{}
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
	// prompt row 0. It lives in memory only — the wire encoding omits it — for
	// a prefill carried across scheduling slices and for the prefix cache,
	// which resumes later prompts from it at any depth. Nil when unknown.
	Trail *protect.Trail
	Stats protect.CorrectionStats
	// ByKind carries the per-layer-kind correction breakdown. Callers that
	// only need the aggregate counters bit-identical (the campaign's golden
	// checkpoints) may leave it zero; the serving layer round-trips it so a
	// session's per-kind telemetry survives being parked and resumed.
	ByKind [model.NumLayerKinds]protect.CorrectionStats
}

// CaptureForkState snapshots the controller's state: the bounds are deep
// copied and the trail cloned (protect.Trail.Clone), so the capture stays
// valid across later Resets.
func (f *FT2) CaptureForkState() ForkState {
	return ForkState{
		Bounds:        f.bounds.Clone(),
		FirstTokenNaN: f.ftNaN,
		Trail:         f.trail.Clone(),
		Stats:         f.stats,
		ByKind:        f.byKind,
	}
}

// ResumeFork installs a captured state for a forked continuation. One that
// starts at a decode step ≥ 1 reads st.Bounds without ever writing it, so one
// captured state may back many concurrent forks; a continuation still inside
// its prefill owns st.Bounds and st.Trail and keeps extending both.
func (f *FT2) ResumeFork(st ForkState) {
	f.bounds, f.trail, f.tableOK = st.Bounds, st.Trail, false
	f.ftNaN = st.FirstTokenNaN
	f.stats = st.Stats
	f.byKind = st.ByKind
}

// Stats returns the corrections applied since attach (following tokens
// only; first-token NaN corrections are reported by FirstTokenNaNCount).
func (f *FT2) Stats() protect.CorrectionStats { return f.stats }

// StatsByKind breaks the following-token corrections down by the layer kind
// they fired on, indexed by model.LayerKind.
func (f *FT2) StatsByKind() [model.NumLayerKinds]protect.CorrectionStats { return f.byKind }

// FirstTokenNaNCount returns NaNs corrected during the last inference's
// first-token pass.
func (f *FT2) FirstTokenNaNCount() int { return f.ftNaN }

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
// those captured from the last inference's first token, or the fork-state
// bounds after ResumeFork.
func (f *FT2) Bounds() *protect.Store { return f.bounds }

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
func (f *FT2) hook(ctx model.HookCtx, out *tensor.Tensor) {
	st := &f.stages[ctx.Layer.Kind]
	if st.repair != nil {
		st.repair(ctx, out)
	}
	if !st.clamp[ctx.Site] {
		return
	}
	if ctx.FirstToken && f.learn {
		f.tableOK = false
		key := protect.SiteKey{Layer: ctx.Layer, Site: ctx.Site}
		f.ftNaN += f.bounds.ObserveRows(key, out, ctx.Pos, f.opts.FirstTokenNaNCorrection, f.trail)
		return
	}
	if !f.tableOK {
		f.fillTable()
	}
	var c protect.CorrectionStats
	if e := &f.table[f.slot(ctx.Layer, ctx.Site)]; e.ok {
		c = protect.ClampCorrect(out.Data, e.b, f.opts.Mode, f.correctNaN)
	} else if f.correctNaN {
		// No bounds for the site (an offline profile that never saw it): NaN
		// correction is all that can be done.
		c.NaN = protect.CorrectNaNOnly(out.Data)
	}
	f.stats.OutOfBound += c.OutOfBound
	f.stats.NaN += c.NaN
	f.byKind[ctx.Layer.Kind].OutOfBound += c.OutOfBound
	f.byKind[ctx.Layer.Kind].NaN += c.NaN
}

// slot is the table index of a site on this model.
func (f *FT2) slot(l model.LayerRef, site model.Site) int {
	return (l.Block*model.NumLayerKinds+int(l.Kind))*len(f.stages[0].clamp) + int(site)
}

// fillTable rebuilds the table from the store in force, asking it only for
// the sites the policy clamps: no key a decoded fork state carries sizes it.
func (f *FT2) fillTable() {
	for b := 0; b < f.m.Cfg.Blocks; b++ {
		for k := range f.stages {
			l := model.LayerRef{Block: b, Kind: model.LayerKind(k)}
			for site, on := range f.stages[k].clamp {
				var e siteBounds
				if on {
					e.b, e.ok = f.bounds.Get(protect.SiteKey{Layer: l, Site: model.Site(site)})
					e.b = e.b.Scale(f.opts.ScaleFactor)
				}
				f.table[f.slot(l, model.Site(site))] = e
			}
		}
	}
	f.tableOK = true
}
