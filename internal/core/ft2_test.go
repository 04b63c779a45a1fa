package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ft2/internal/abft"
	"ft2/internal/arch"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

func testModel(t *testing.T, name string) *model.Model {
	t.Helper()
	cfg, err := model.ConfigByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return model.MustNew(cfg, 42, numerics.FP16)
}

func TestDefaults(t *testing.T) {
	d := Defaults()
	if d.ScaleFactor != 2 || d.Mode != protect.ClipToBound || !d.FirstTokenNaNCorrection || d.ProtectAllLayers {
		t.Errorf("Defaults() = %+v does not match the paper configuration", d)
	}
}

func TestAttachRejectsBadScale(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	defer func() {
		if recover() == nil {
			t.Error("scale < 1 must panic")
		}
	}()
	Attach(m, Options{ScaleFactor: 0.5})
}

func TestFT2FaultFreeTransparency(t *testing.T) {
	// With scaled bounds, FT2 must not change fault-free generations.
	for _, name := range []string{"opt-2.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		m := testModel(t, name)
		prompt := []int{4, 9, 14, 19, 24}
		clean := m.Generate(prompt, 12)

		f := Attach(m, Defaults())
		protected := f.Generate(prompt, 12)
		f.Detach()
		for i := range clean {
			if clean[i] != protected[i] {
				t.Errorf("%s: FT2 changed a fault-free generation at %d: %v vs %v", name, i, clean, protected)
				break
			}
		}
	}
}

func TestFT2CapturesBoundsDuringFirstToken(t *testing.T) {
	m := testModel(t, "llama2-7b-sim")
	f := Attach(m, Defaults())
	defer f.Detach()
	f.Generate([]int{4, 5, 6, 7}, 6)
	// Llama family: 4 critical kinds per block.
	want := m.Cfg.Blocks * 4
	if got := f.Bounds().Len(); got != want {
		t.Errorf("captured bounds for %d sites, want %d", got, want)
	}
	if f.ProtectedSiteCount() != want {
		t.Errorf("ProtectedSiteCount = %d, want %d", f.ProtectedSiteCount(), want)
	}
}

func TestFT2BoundsResetPerInference(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	f := Attach(m, Defaults())
	defer f.Detach()
	f.Generate([]int{4, 5, 6}, 4)
	k := protect.SiteKey{Layer: model.LayerRef{Block: 0, Kind: model.VProj}, Site: model.SiteLinearOut}
	b1, ok1 := f.Bounds().Get(k)
	f.Generate([]int{40, 50, 60, 70, 80}, 4)
	b2, ok2 := f.Bounds().Get(k)
	if !ok1 || !ok2 {
		t.Fatal("bounds missing")
	}
	if b1 == b2 {
		t.Log("note: identical bounds across different prompts (possible but unlikely)")
	}
}

// TestProtectedGenerateIntoAllocFree: with a reused destination the protected
// steady state never touches the allocator — the bounds store clears in place
// and the bounds trail reuses its backing array across Resets.
func TestProtectedGenerateIntoAllocFree(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	f := Attach(m, Defaults())
	defer f.Detach()
	prompt := []int{4, 5, 6, 7, 8, 9, 10, 11}
	buf := make([]int, 0, 8)
	f.GenerateInto(buf, prompt, 8) // warm up scratch, bounds map, trail
	if avg := testing.AllocsPerRun(10, func() { f.GenerateInto(buf, prompt, 8) }); avg != 0 {
		t.Fatalf("protected GenerateInto allocates %.1f objects/run after warm-up, want 0", avg)
	}
}

func TestFT2CorrectsInjectedFault(t *testing.T) {
	m := testModel(t, "opt-6.7b-sim")
	prompt := []int{4, 9, 14, 19}
	clean := m.Generate(prompt, 10)

	// Injector: huge value in a critical layer during a following token.
	inject := m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Layer == (model.LayerRef{Block: 2, Kind: model.OutProj}) && ctx.Step == 1 && ctx.Site == model.SiteLinearOut {
			out.Data[0] = 48000
		}
	})
	corrupted := m.Generate(prompt, 10)

	f := Attach(m, Defaults()) // protector runs after the injector
	protected := f.Generate(prompt, 10)
	f.Detach()
	m.RemoveHook(inject)

	diff := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return true
			}
		}
		return false
	}
	if !diff(clean, corrupted) {
		t.Skip("fault masked without protection on this seed")
	}
	if diff(clean, protected) {
		t.Errorf("FT2 failed to mask the fault: clean=%v protected=%v", clean, protected)
	}
	if f.Stats().OutOfBound == 0 {
		t.Error("FT2 should have clipped the injected value")
	}
}

func TestFT2CorrectsNaNDuringFirstToken(t *testing.T) {
	m := testModel(t, "opt-6.7b-sim")
	prompt := []int{4, 9, 14, 19}
	clean := m.Generate(prompt, 8)

	nan := float32(0)
	nan /= nan // quiet NaN without importing math
	inject := m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Layer == (model.LayerRef{Block: 1, Kind: model.FC2}) && ctx.Step == 0 && ctx.Site == model.SiteLinearOut {
			out.Data[3] = nan
		}
	})
	f := Attach(m, Defaults())
	protected := f.Generate(prompt, 8)
	if f.FirstTokenNaNCount() == 0 {
		t.Error("FT2 should have corrected the first-token NaN")
	}
	f.Detach()
	m.RemoveHook(inject)

	same := true
	for i := range clean {
		if clean[i] != protected[i] {
			same = false
		}
	}
	if !same {
		t.Log("first-token NaN changed output even after correction (counted as first-token SDC risk, acceptable)")
	}
}

// TestBindWritesInPlace: a bound state is the one the controller works on —
// after a protected generation with a first-token NaN and out-of-bound
// values, its counters are Stats, StatsByKind and FirstTokenNaNCount, its
// store is Bounds and its trail folds to both — and a CaptureForkState of the
// controller's own state survives a later Reset and Bind.
func TestBindWritesInPlace(t *testing.T) {
	m := testModel(t, "opt-6.7b-sim")
	nan := float32(0)
	nan /= nan
	m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		switch {
		case ctx.Site != model.SiteLinearOut:
		case ctx.Step == 0 && ctx.Layer == (model.LayerRef{Block: 1, Kind: model.FC2}):
			out.Data[3] = nan
		case ctx.Step >= 1 && ctx.Layer == (model.LayerRef{Block: 2, Kind: model.OutProj}):
			out.Data[0] = 48000
		}
	})
	f := New(m, Defaults())
	f.Install()
	prompt := []int{4, 9, 14, 19}
	bound := func(st *ForkState) {
		t.Helper()
		f.Bind(st)
		tok := m.Prefill(prompt)
		for i := 0; i < 5; i++ {
			tok = m.DecodeStep(tok)
		}
		if st.Stats != f.Stats() || st.ByKind != f.StatsByKind() || st.FirstTokenNaN != f.FirstTokenNaNCount() || st.Bounds != f.Bounds() {
			t.Fatalf("bound state %+v is not the controller's: stats %+v, NaN %d", st, f.Stats(), f.FirstTokenNaNCount())
		}
		if st.Stats.OutOfBound == 0 || st.FirstTokenNaN == 0 || st.Bounds.Len() == 0 {
			t.Fatalf("the faults left no trace in the bound state: %+v", st)
		}
		at, atNaN := st.Trail.At(len(prompt))
		folded := ForkState{Bounds: at, FirstTokenNaN: atNaN, Stats: st.Stats, ByKind: st.ByKind}
		if !bytes.Equal(AppendForkState(nil, &folded), AppendForkState(nil, st)) {
			t.Fatalf("the bound trail folds to %v NaN %d, the store is %v NaN %d", at, atNaN, st.Bounds, st.FirstTokenNaN)
		}
	}
	bound(&ForkState{Bounds: protect.NewStore(), Trail: new(protect.Trail)})

	f.Generate(prompt, 6)
	capture := f.CaptureForkState()
	want := AppendForkState(nil, &capture)
	f.Reset()
	bound(&ForkState{Bounds: protect.NewStore(), Trail: new(protect.Trail)})
	if got := AppendForkState(nil, &capture); !bytes.Equal(got, want) || capture.Bounds.Len() == 0 {
		t.Fatal("a captured state changed under a later Reset and Bind")
	}
}

// TestObserveRecordsProtectedTrail: under a policy with repair tiers, the
// hook of a controller bound to observe leaves an unprotected generation's
// tokens as they are and ends its prefill with the bounds and trail a
// protecting one records from the same rows; a NaN planted at a clamp site
// stays in place and is counted.
func TestObserveRecordsProtectedTrail(t *testing.T) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	policy := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.VProj: protect.TierABFTFT2, model.OutProj: protect.TierFT2, model.QProj: protect.TierDMR,
	}}
	prompt := []int{4, 9, 14, 19, 24, 29, 34, 39}
	nan := float32(0)
	nan /= nan
	observe := func(f *FT2) model.Hook {
		st := OpenPrefill(nil, 0, true)
		f.Observe(&st)
		return f.Hook()
	}
	run := func(hook func(*FT2) model.Hook, plantNaN bool) ([]int, *FT2) {
		m := model.MustNew(cfg, 11, numerics.FP16)
		if plantNaN {
			m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
				if ctx.FirstToken && ctx.Layer == (model.LayerRef{Block: 1, Kind: model.VProj}) && ctx.Site == model.SiteLinearOut {
					out.Data[5] = nan
				}
			})
		}
		f := NewHybrid(m, Defaults(), policy, nil)
		f.Reset()
		if hook != nil {
			m.RegisterHook(hook(f))
		}
		return m.Generate(prompt, 8), f
	}

	bare, _ := run(nil, false)
	observed, obs := run(observe, false)
	_, prot := run((*FT2).Hook, false)
	if !slices.Equal(observed, bare) || obs.FirstTokenNaNCount() != 0 {
		t.Fatalf("observed generation %v (%d NaNs seen), unhooked %v", observed, obs.FirstTokenNaNCount(), bare)
	}
	ot, pt := obs.CaptureForkState().Trail, prot.CaptureForkState().Trail
	for d := 0; d <= len(prompt); d++ {
		os, on := ot.At(d)
		ps, pn := pt.At(d)
		if os.String() != ps.String() || on != pn || d == len(prompt) && os.Len() != prot.ProtectedSiteCount() {
			t.Fatalf("trail at %d rows: observed %d NaN\n%s protected %d NaN\n%s", d, on, os, pn, ps)
		}
	}

	bareNaN, _ := run(nil, true)
	observedNaN, obs := run(observe, true)
	if !slices.Equal(observedNaN, bareNaN) || obs.FirstTokenNaNCount() == 0 {
		t.Fatalf("with a planted NaN: observed %v (%d NaNs seen), unhooked %v", observedNaN, obs.FirstTokenNaNCount(), bareNaN)
	}
}

func TestFT2AllLayerCoverage(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	opts := Defaults()
	opts.ProtectAllLayers = true
	f := Attach(m, opts)
	defer f.Detach()
	want := len(m.Cfg.LinearLayers())
	if f.ProtectedSiteCount() != want {
		t.Errorf("all-layer coverage = %d sites, want %d", f.ProtectedSiteCount(), want)
	}
	f.Generate([]int{4, 5, 6}, 4)
	if f.Bounds().Len() != want {
		t.Errorf("all-layer profiling captured %d, want %d", f.Bounds().Len(), want)
	}
}

func TestFT2MemoryOverheadBytes(t *testing.T) {
	m := testModel(t, "llama2-7b-sim")
	f := Attach(m, Defaults())
	defer f.Detach()
	f.Generate([]int{4, 5, 6}, 4)
	bytes := f.Bounds().MemoryBytes(numerics.FP16)
	// 16 protected layers × 2 values × 2 bytes = 64 bytes on the scaled-down
	// model; the real llama2-7b (32 blocks × 4) would be 512 — the paper's
	// upper end.
	if bytes != m.Cfg.Blocks*4*4 {
		t.Errorf("memory overhead %d bytes", bytes)
	}
	refBytes := 32 * 4 * 2 * 2
	if refBytes != 512 {
		t.Errorf("reference-model memory accounting wrong: %d", refBytes)
	}
}

func TestFT2ScaleFactorWidensEffectiveBounds(t *testing.T) {
	m := testModel(t, "vicuna-7b-sim")
	prompt := []int{4, 9, 14, 19, 24, 29}

	corrections := func(scale float32) int {
		opts := Defaults()
		opts.ScaleFactor = scale
		f := Attach(m, opts)
		defer f.Detach()
		f.Generate(prompt, 24)
		return f.Stats().Total()
	}
	// Fault-free corrections fall as the scale grows; unscaled bounds clip some.
	c1 := corrections(1)
	c2 := corrections(2)
	c4 := corrections(4)
	if c1 == 0 || c2 > c1 || c4 > c2 {
		t.Errorf("corrections must be positive at scale 1 and monotone in scale: %d, %d, %d", c1, c2, c4)
	}
}

func TestFT2ClipModeZeroStillProtects(t *testing.T) {
	m := testModel(t, "opt-6.7b-sim")
	opts := Defaults()
	opts.Mode = protect.ClipToZero
	f := Attach(m, opts)
	defer f.Detach()
	out := f.Generate([]int{4, 5, 6, 7}, 10)
	if len(out) != 10 {
		t.Fatal("generation failed under clip-to-zero")
	}
}

// The exact-repair tiers restore a transient fault bit-for-bit — the run
// lands on the fault-free golden — and count it through DrainCounts.
func TestExactRepairTiers(t *testing.T) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	prompt := []int{4, 9, 14, 19, 24}
	golden := model.MustNew(cfg, 11, numerics.FP16).Generate(prompt, 14)

	// Probe the 2×-scaled bound the clamp enforces on block0.DOWN_PROJ, then
	// pin the whole output row at 90% of it — a stuck-row burst that is
	// provably in-range for the clamp element-by-element yet wrecks the row
	// checksum. (Single in-bound flips are architecturally masked on a model
	// this small; the burst makes the clamp's blind spot observable.)
	ref := model.LayerRef{Block: 0, Kind: model.DownProj}
	pf := Attach(model.MustNew(cfg, 11, numerics.FP16), Defaults())
	pf.Generate(prompt, 14)
	b, ok := pf.Bounds().Get(protect.SiteKey{Layer: ref, Site: model.SiteLinearOut})
	if !ok {
		t.Fatal("no profiled bounds for the fault site")
	}
	stuck := 0.9 * b.Scale(2).Hi
	if stuck <= 0 {
		t.Fatalf("degenerate bound %g — no room for an in-bound fault", stuck)
	}
	stuckRow := func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Step == 2 && ctx.Site == model.SiteLinearOut && ctx.Layer == ref {
			for i := range out.Data {
				out.Data[i] = stuck
			}
		}
	}
	critical := func(extra model.LayerKind, tier protect.Tier) *protect.Policy {
		p := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{extra: tier}}
		for _, k := range arch.CriticalKinds(cfg.Family) {
			if k != extra {
				p.Tiers[k] = protect.TierFT2
			}
		}
		return p
	}
	flip := fault.NewInjector(fault.Site{Step: 1, Layer: model.LayerRef{Block: 0, Kind: model.QProj}, Elem: 2, Bits: []int{14}}, numerics.FP16)

	cases := []struct {
		name   string
		policy *protect.Policy // nil: the paper's policy, the control
		inject model.Hook
		fixed  func(ExactCounts) bool
	}{
		{"abft+ft2 repairs the in-bound burst", critical(model.DownProj, protect.TierABFTFT2), stuckRow,
			func(c ExactCounts) bool { return c.ABFT.Detected > 0 && c.ABFT.Corrected > 0 }},
		// The clamp alone passes the in-range corruption through at the fault
		// site (it may clamp downstream fallout, but cannot restore the exact
		// value), so the generation diverges — the gap the ABFT tier closes.
		{"ft2 alone does not", nil, stuckRow, nil},
		{"dmr repairs an exponent flip", &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{model.QProj: protect.TierDMR}}, flip.Hook(),
			func(c ExactCounts) bool { return c.DMRFixed > 0 }},
	}
	for _, c := range cases {
		m := model.MustNew(cfg, 11, numerics.FP16)
		m.RegisterHook(c.inject)
		f := NewHybrid(m, Defaults(), c.policy, nil)
		f.Install()
		got := f.Generate(prompt, 14)
		if c.fixed == nil {
			if slices.Equal(golden, got) {
				t.Errorf("%s: fault masked — the control lost its meaning", c.name)
			}
			continue
		}
		if n := f.DrainCounts(); !c.fixed(n) {
			t.Errorf("%s: exact tier never fired: %+v", c.name, n)
		}
		if !slices.Equal(golden, got) {
			t.Errorf("%s: diverged from golden: %v vs %v", c.name, got, golden)
		}
		if n := f.DrainCounts(); n != (ExactCounts{}) {
			t.Errorf("%s: second drain not zero: %+v", c.name, n)
		}
	}
}

// ctlDigest is everything a protected run leaves behind that a caller can
// observe: tokens, clamp counters, exact-repair counters, fork-state bytes.
type ctlDigest struct {
	toks  []int
	stats protect.CorrectionStats
	kinds [model.NumLayerKinds]protect.CorrectionStats
	ftNaN int
	exact ExactCounts
	fork  []byte
}

func digestOf(f *FT2, toks []int, exact ExactCounts) ctlDigest {
	st := f.CaptureForkState()
	return ctlDigest{toks, f.Stats(), f.StatsByKind(), f.FirstTokenNaNCount(), exact, AppendForkState(nil, &st)}
}

func (a ctlDigest) equal(b ctlDigest) bool {
	return slices.Equal(a.toks, b.toks) && a.stats == b.stats && a.kinds == b.kinds &&
		a.ftNaN == b.ftNaN && a.exact == b.exact && bytes.Equal(a.fork, b.fork)
}

// Property, over seeded random policies × random faults × three families:
// the controller is the standalone ABFT checker hook, the standalone DMR hook
// and a range-restriction-only controller registered in that order by hand;
// and a run forked at a random step — model snapshot plus ForkState onto a
// second replica and a second controller — is the uninterrupted run.
func TestControllerMatchesHandComposedStages(t *testing.T) {
	const gen = 10
	tiers := []protect.Tier{protect.TierNone, protect.TierFT2, protect.TierABFT, protect.TierDMR, protect.TierABFTFT2}
	for _, name := range []string{"opt-2.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(20250926))
		for trial := 0; trial < 12; trial++ {
			kinds := cfg.Family.LayerKinds()
			policy := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{}}
			for _, k := range kinds {
				policy.Tiers[k] = tiers[rng.Intn(len(tiers))]
			}
			prompt := make([]int, 3+rng.Intn(6))
			for i := range prompt {
				prompt[i] = 4 + rng.Intn(200)
			}
			// Two faults per run, mantissa or exponent bit, prefill included.
			var sites []fault.Site
			for i := 0; i < 2; i++ {
				sites = append(sites, fault.Site{
					Step:  rng.Intn(gen),
					Layer: model.LayerRef{Block: rng.Intn(cfg.Blocks), Kind: kinds[rng.Intn(len(kinds))]},
					Elem:  rng.Intn(8), Bits: []int{[]int{9, 14}[rng.Intn(2)]},
				})
			}
			replica := func() *model.Model {
				m := model.MustNew(cfg, 42, numerics.FP16)
				for _, s := range sites {
					m.RegisterHook(fault.NewInjector(s, numerics.FP16).Hook())
				}
				return m
			}

			m := replica()
			f := NewHybrid(m, Defaults(), policy, nil)
			f.Install()
			toks := f.Generate(prompt, gen)
			want := digestOf(f, toks, f.DrainCounts())

			// By hand: checker, DMR, clamp — each over its own kinds.
			m = replica()
			var exact ExactCounts
			var chk *abft.LinearChecker
			var dmr *protect.DMR
			if ks := policy.Kinds(protect.TierABFT, protect.TierABFTFT2); len(ks) > 0 {
				chk = abft.NewLinearChecker(m, abft.CaptureRefSums(m, ks...), ks...)
				m.RegisterHook(chk.Hook())
			}
			if ks := policy.Kinds(protect.TierDMR); len(ks) > 0 {
				dmr = protect.NewDMR(m, ks...)
				m.RegisterHook(dmr.Hook())
			}
			clamp := NewWithKinds(m, Defaults(), policy.Kinds(protect.TierFT2, protect.TierABFTFT2)...)
			clamp.Install()
			toks = clamp.Generate(prompt, gen)
			if chk != nil {
				exact.ABFT = chk.Stats
			}
			if dmr != nil {
				exact.DMRFixed = int64(dmr.Detected)
			}
			if got := digestOf(clamp, toks, exact); !got.equal(want) {
				t.Errorf("%s trial %d policy %v faults %v: hand-composed stages\n got %+v\nwant %+v", name, trial, policy, sites, got, want)
			}

			// Forked: run to a random step, move snapshot + fork state over.
			m = replica()
			f = NewHybrid(m, Defaults(), policy, nil)
			f.Install()
			f.Reset()
			cut := 1 + rng.Intn(gen-1)
			toks = append(toks[:0], m.Prefill(prompt))
			for len(toks) < cut {
				toks = append(toks, m.DecodeStep(toks[len(toks)-1]))
			}
			var snap model.Snapshot
			m.Checkpoint(&snap)
			exact = f.DrainCounts()
			m2 := replica()
			f2 := NewHybrid(m2, Defaults(), policy, nil)
			f2.Install()
			st := f.CaptureForkState()
			f2.Bind(&st)
			tok := m2.Restore(&snap)
			for len(toks) < gen {
				tok = m2.DecodeStep(tok)
				toks = append(toks, tok)
			}
			tail := f2.DrainCounts()
			exact.ABFT.Add(tail.ABFT)
			exact.DMRFixed += tail.DMRFixed
			if got := digestOf(f2, toks, exact); !got.equal(want) {
				t.Errorf("%s trial %d policy %v faults %v cut %d: forked resume\n got %+v\nwant %+v", name, trial, policy, sites, cut, got, want)
			}
		}
	}
}

// The offline-bounds baselines are the same clamp stage reading a frozen
// store from step 0: MaxiMals' 1.25× scaling and Ranger's activation-site
// coverage without NaN correction come through the one hook.
func TestOfflineBoundsClampFromStepZero(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	nan := float32(0)
	nan /= nan
	fc1 := model.LayerRef{Block: 0, Kind: model.FC1}
	out := model.LayerRef{Block: 0, Kind: model.OutProj}
	store := protect.NewStore()
	store.Set(protect.SiteKey{Layer: fc1, Site: model.SiteActivationOut}, protect.Bounds{Lo: -4, Hi: 4})
	store.Set(protect.SiteKey{Layer: out, Site: model.SiteLinearOut}, protect.Bounds{Lo: -4, Hi: 4})
	var seen [3]float32
	poke := func(ref model.LayerRef, site model.Site, vals ...float32) model.Hook {
		return func(ctx model.HookCtx, t *tensor.Tensor) {
			if ctx.Step == 0 && ctx.Layer == ref && ctx.Site == site {
				copy(t.Data, vals)
			}
		}
	}
	peek := func(ref model.LayerRef, site model.Site) model.Hook {
		return func(ctx model.HookCtx, t *tensor.Tensor) {
			if ctx.Step == 0 && ctx.Layer == ref && ctx.Site == site {
				copy(seen[:], t.Data)
			}
		}
	}

	// Ranger: the activation output is clamped during prefill; NaN passes.
	m.RegisterHook(poke(fc1, model.SiteActivationOut, 100, nan, 1))
	ranger := NewOffline(m, Options{ScaleFactor: 1}, arch.Coverage(arch.MethodRanger, m.Cfg.Family), store, arch.CorrectsNaN(arch.MethodRanger))
	ranger.Install()
	m.RegisterHook(peek(fc1, model.SiteActivationOut))
	ranger.Generate([]int{4, 5, 6}, 2)
	if seen[0] != 4 || seen[1] == seen[1] || seen[2] != 1 {
		t.Errorf("Ranger left %v, want [4 NaN 1]", seen)
	}
	if st := ranger.Stats(); st.OutOfBound != 1 || st.NaN != 0 || ranger.FirstTokenNaNCount() != 0 {
		t.Errorf("Ranger counted %+v", st)
	}
	if ranger.Bounds() != store || store.Len() != 2 {
		t.Error("an offline controller must neither swap nor write its store")
	}

	// MaxiMals: OUT_PROJ clamped at 1.25× the profiled bound.
	m.ClearHooks()
	m.RegisterHook(poke(out, model.SiteLinearOut, 100, -4.5, 1))
	mm := NewOffline(m, Options{ScaleFactor: 1.25}, arch.Coverage(arch.MethodMaxiMals, m.Cfg.Family), store, false)
	mm.Install()
	m.RegisterHook(peek(out, model.SiteLinearOut))
	mm.Generate([]int{4, 5, 6}, 2)
	if seen != [3]float32{5, -4.5, 1} {
		t.Errorf("MaxiMals left %v, want [5 -4.5 1]", seen)
	}
}

func TestOfflineBoundsCorrectInjectedValue(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	prompt := []int{4, 5, 6, 7}
	store := protect.OfflineProfile(m, [][]int{prompt}, 6)
	clean := m.Generate(prompt, 8)

	// Inject a huge value into a critical layer at step 2.
	m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Layer == (model.LayerRef{Block: 1, Kind: model.FC2}) && ctx.Step == 2 && ctx.Site == model.SiteLinearOut {
			out.Data[0] = 60000
		}
	})
	corrupted := m.Generate(prompt, 8)

	// Now add FT2-offline protection after the injector.
	f := NewOffline(m, Options{ScaleFactor: 2}, arch.Coverage(arch.MethodFT2Offline, m.Cfg.Family), store, true)
	f.Install()
	protected := f.Generate(prompt, 8)

	if slices.Equal(clean, corrupted) {
		t.Skip("injected fault was masked without protection on this seed")
	}
	if !slices.Equal(clean, protected) {
		t.Errorf("protection failed to mask the fault: clean=%v protected=%v", clean, protected)
	}
	if f.Stats().OutOfBound == 0 {
		t.Error("the clamp should have detected the out-of-bound value")
	}
}

// TestProtectionLimitsPropagation follows a large fault written into block
// 0's OUT_PROJ output at the first decode step through every later hook
// site, as each site's max |Δ| against a golden run relative to the golden
// run's max |v| there (a NaN counts as unbounded). Unprotected, the fault
// deviates block 1 downstream; FT2 shrinks that deviation; DMR behind the
// injector recomputes the layer, so no site deviates beyond 1e-3.
func TestProtectionLimitsPropagation(t *testing.T) {
	m := testModel(t, "opt-2.7b-sim")
	prompt := []int{4, 5, 6, 7}
	type siteKey struct {
		step  int
		layer model.LayerRef
		site  model.Site
	}
	golden := map[siteKey][]float32{}
	h := m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		golden[siteKey{ctx.Step, ctx.Layer, ctx.Site}] = slices.Clone(out.Data)
	})
	m.Generate(prompt, 6)
	m.RemoveHook(h)

	// deviations runs the faulty generation with the hooks prepare
	// registers and returns each site's worst relative deviation.
	deviations := func(prepare func()) map[siteKey]float64 {
		dev := map[siteKey]float64{}
		prepare()
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			k := siteKey{ctx.Step, ctx.Layer, ctx.Site}
			ref := golden[k]
			if len(ref) != len(out.Data) {
				t.Fatalf("site %+v: %d values, golden run %d", k, len(out.Data), len(ref))
			}
			var maxDiff, maxRef float64
			for i, v := range out.Data {
				d := math.Abs(float64(v) - float64(ref[i]))
				if math.IsNaN(d) {
					d = math.Inf(1)
				}
				maxDiff = max(maxDiff, d)
				maxRef = max(maxRef, math.Abs(float64(ref[i])))
			}
			dev[k] = max(dev[k], maxDiff/(maxRef+1e-12))
		})
		m.Generate(prompt, 6)
		m.ClearHooks()
		return dev
	}
	inject := func() {
		m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
			if ctx.Layer == (model.LayerRef{Block: 0, Kind: model.OutProj}) && ctx.Step == 1 && ctx.Site == model.SiteLinearOut {
				out.Data[0] = 30000
			}
		})
	}
	worstIn := func(dev map[siteKey]float64, block int) float64 {
		worst := 0.0
		for k, d := range dev {
			if k.layer.Block == block {
				worst = max(worst, d)
			}
		}
		return worst
	}

	unprotected := deviations(inject)
	protected := deviations(func() {
		inject()
		Attach(m, Defaults()) // cleared with the other hooks afterwards
	})
	if u, p := worstIn(unprotected, 1), worstIn(protected, 1); u <= 1e-3 || p >= u {
		t.Errorf("block 1 deviates %g unprotected, %g under FT2: want a deviation FT2 shrinks", u, p)
	}
	for k, d := range deviations(func() {
		inject()
		m.RegisterHook(protect.NewDMR(m).Hook())
	}) {
		if d > 1e-3 {
			t.Errorf("DMR left step %d %v/%v deviating %g", k.step, k.layer, k.site, d)
		}
	}
}

// TestLearnedBoundsValid: every store the first-token pass learns — with
// NaN and ±Inf written into every first-token layer output, or without — and
// every store the offline profiler builds holds only Valid bounds, the
// property DecodeForkState demands of an imported one.
func TestLearnedBoundsValid(t *testing.T) {
	prompts := [][]int{{4, 9, 14, 19, 24}, {5, 6, 7}}
	check := func(what string, s *protect.Store) {
		t.Helper()
		if s.Len() == 0 {
			t.Fatalf("%s: no bounds learned", what)
		}
		for _, e := range s.SortedEntries() {
			if !e.Bounds.Valid() {
				t.Fatalf("%s: invalid bounds [%g, %g] at %v", what, e.Bounds.Lo, e.Bounds.Hi, e.Key)
			}
		}
	}
	wild := func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.FirstToken && len(out.Data) >= 3 {
			out.Data[0], out.Data[1], out.Data[2] = float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))
		}
	}
	for _, name := range []string{"opt-2.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		m := testModel(t, name)
		opts := Defaults()
		opts.ProtectAllLayers = true
		for _, faulty := range []bool{false, true} {
			if faulty {
				m.RegisterHook(wild)
			}
			f := Attach(m, opts)
			for _, p := range prompts {
				f.Generate(p, 8)
				check(fmt.Sprintf("%s first token (faulty %v)", name, faulty), f.Bounds())
			}
			m.ClearHooks()
		}
		check(name+" profiler", protect.OfflineProfile(m, prompts, 8))
	}
}
