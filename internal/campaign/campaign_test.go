package campaign

import (
	"strings"
	"testing"

	"ft2/internal/arch"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/perfmodel"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// smallDataset trims generation length so campaign tests stay fast while
// exercising the full pipeline.
func smallDataset(t *testing.T) *data.Dataset {
	t.Helper()
	d := data.SquadSim(4)
	d.GenTokens = 16
	d.AnswerLo, d.AnswerHi = 8, 12
	return d
}

func baseSpec(t *testing.T, method arch.Method) Spec {
	t.Helper()
	cfg, err := model.ConfigByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		ModelCfg:  cfg,
		ModelSeed: 42,
		DType:     numerics.FP16,
		Fault:     numerics.ExponentBit,
		Method:    method,
		FT2Opts:   core.Defaults(),
		Dataset:   smallDataset(t),
		Trials:    60,
		BaseSeed:  1,
	}
	if spec.needsOfflineBounds() {
		m := model.MustNew(cfg, 42, numerics.FP16)
		spec.OfflineBounds = protect.OfflineProfile(m, spec.Dataset.Prompts(), spec.Dataset.GenTokens)
	}
	return spec
}

func TestRunUnprotected(t *testing.T) {
	res, err := Run(baseSpec(t, arch.MethodNone))
	if err != nil {
		t.Fatal(err)
	}
	if res.SDC.Trials != 60 {
		t.Errorf("trials = %d, want 60", res.SDC.Trials)
	}
	if res.SDC.Successes == 0 {
		t.Error("EXP faults on an unprotected model should cause some SDCs")
	}
	if res.Corrections.Total() != 0 {
		t.Error("unprotected run must report zero corrections")
	}
	sum := 0
	for _, p := range res.ByKind {
		sum += p.Trials
	}
	if sum != 60 {
		t.Errorf("per-kind trials sum to %d, want 60", sum)
	}
}

func TestRunFT2ReducesSDC(t *testing.T) {
	unprot, err := Run(baseSpec(t, arch.MethodNone))
	if err != nil {
		t.Fatal(err)
	}
	ft2, err := Run(baseSpec(t, arch.MethodFT2))
	if err != nil {
		t.Fatal(err)
	}
	if ft2.SDC.Successes > unprot.SDC.Successes {
		t.Errorf("FT2 SDC count %d exceeds unprotected %d", ft2.SDC.Successes, unprot.SDC.Successes)
	}
	if ft2.Corrections.Total() == 0 {
		t.Error("FT2 should have corrected some values across 60 EXP-fault trials")
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Workers = 4
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 1
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.SDC != b.SDC {
		t.Errorf("campaign result depends on worker count: %v vs %v", a.SDC, b.SDC)
	}
}

func TestRunBaselineMethods(t *testing.T) {
	for _, m := range []arch.Method{arch.MethodRanger, arch.MethodMaxiMals, arch.MethodGlobalClipper, arch.MethodFT2Offline} {
		spec := baseSpec(t, m)
		spec.Trials = 30
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.SDC.Trials != 30 {
			t.Errorf("%v: trials %d", m, res.SDC.Trials)
		}
	}
}

func TestRunWindows(t *testing.T) {
	for _, w := range []Window{WindowFirstToken, WindowFollowing} {
		spec := baseSpec(t, arch.MethodNone)
		spec.Window = w
		spec.Trials = 20
		if _, err := Run(spec); err != nil {
			t.Fatalf("%v: %v", w, err)
		}
	}
	if WindowAll.String() != "all" || WindowFirstToken.String() != "first-token" || WindowFollowing.String() != "following" {
		t.Error("Window strings wrong")
	}
}

func TestRunCustomCoverage(t *testing.T) {
	spec := baseSpec(t, arch.MethodFT2Offline) // forces bounds profiling
	spec.Trials = 20
	// Leave-one-out: protect all linear layers except V_PROJ.
	cov := make(map[arch.CoveragePoint]bool)
	for _, k := range spec.ModelCfg.Family.LayerKinds() {
		if k != model.VProj {
			cov[arch.CoveragePoint{Kind: k, Site: model.SiteLinearOut}] = true
		}
	}
	spec.CustomCoverage = cov
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.SDC.Trials != 20 {
		t.Errorf("trials = %d", res.SDC.Trials)
	}
}

func TestRunValidation(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Dataset = nil
	if _, err := Run(spec); err == nil {
		t.Error("nil dataset must error")
	}
	spec = baseSpec(t, arch.MethodNone)
	spec.Trials = 0
	if _, err := Run(spec); err == nil {
		t.Error("zero trials must error")
	}
	spec = baseSpec(t, arch.MethodRanger)
	spec.OfflineBounds = nil
	if _, err := Run(spec); err == nil {
		t.Error("Ranger without bounds must error")
	}
	// A policy derived for the Llama family on an OPT model: its entries
	// would never fire.
	spec = baseSpec(t, arch.MethodNone)
	spec.Policy = &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{model.DownProj: protect.TierFT2}}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "DOWN_PROJ") {
		t.Errorf("policy for another family: err = %v, want one naming DOWN_PROJ", err)
	}
}

// The baselines keep their own configuration through the one controller:
// MaxiMals clamps at 1.25× the profiled bound and does not correct NaN.
func TestOfflineMethodConfig(t *testing.T) {
	cfg, _ := model.ConfigByName("opt-2.7b-sim")
	m := model.MustNew(cfg, 42, numerics.FP16)
	ref := model.LayerRef{Block: 0, Kind: model.OutProj}
	store := protect.NewStore()
	store.Set(protect.SiteKey{Layer: ref, Site: model.SiteLinearOut}, protect.Bounds{Lo: -4, Hi: 4})
	nan := float32(0)
	nan /= nan
	var seen [2]float32
	at := func(ctx model.HookCtx) bool {
		return ctx.Step == 1 && ctx.Layer == ref && ctx.Site == model.SiteLinearOut
	}
	m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		if at(ctx) {
			out.Data[0], out.Data[1] = 100, nan
		}
	})
	f := offlineMethod(m, arch.MethodMaxiMals, store, protect.ClipToBound)
	f.Install()
	m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		if at(ctx) {
			copy(seen[:], out.Data)
		}
	})
	f.Generate([]int{4, 5, 6}, 3)
	if seen[0] != 5 || seen[1] == seen[1] {
		t.Errorf("MaxiMals left %v, want [5 NaN]", seen)
	}
}

func TestFaultFreeCorrectness(t *testing.T) {
	cfg, err := model.ConfigByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t)

	// Unprotected fault-free runs are 100% correct by definition.
	p, _, err := FaultFreeCorrectness(cfg, 42, numerics.FP16, ds, arch.MethodNone, nil, protect.ClipToBound)
	if err != nil {
		t.Fatal(err)
	}
	if p.P() != 1 {
		t.Errorf("unprotected fault-free correctness = %v, want 1", p)
	}

	// FT2 (scaled first-token bounds) must stay at 100%.
	p, _, err = FaultFreeCorrectness(cfg, 42, numerics.FP16, ds, arch.MethodFT2, nil, protect.ClipToBound)
	if err != nil {
		t.Fatal(err)
	}
	if p.P() != 1 {
		t.Errorf("FT2 fault-free correctness = %v, want 1", p)
	}

	// Bounds profiled on the *target* dataset must also be safe.
	m := model.MustNew(cfg, 42, numerics.FP16)
	own := protect.OfflineProfile(m, ds.Prompts(), ds.GenTokens)
	p, _, err = FaultFreeCorrectness(cfg, 42, numerics.FP16, ds, arch.MethodFT2Offline, own, protect.ClipToBound)
	if err != nil {
		t.Fatal(err)
	}
	if p.P() != 1 {
		t.Errorf("own-dataset offline bounds correctness = %v, want 1", p)
	}
}

func TestFaultFreeCorrectnessAlternativeBoundsDegrade(t *testing.T) {
	cfg, err := model.ConfigByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	target := smallDataset(t)
	m := model.MustNew(cfg, 42, numerics.FP16)

	alt := data.MbppSim(4)
	alt.GenTokens = 16
	altBounds := protect.OfflineProfile(m, alt.Prompts(), alt.GenTokens)
	p, _, err := FaultFreeCorrectness(cfg, 42, numerics.FP16, target, arch.MethodFT2Offline, altBounds, protect.ClipToZero)
	if err != nil {
		t.Fatal(err)
	}
	// Misaligned bounds may clip benign values; correctness must not exceed
	// own-dataset correctness (and typically drops — Fig. 3).
	if p.P() > 1 {
		t.Errorf("correctness %v out of range", p)
	}
	t.Logf("alternative-bounds correctness: %v", p)
}

func TestRunDMR(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.UseDMR = true
	spec.Trials = 25
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.SDC.Successes != 0 {
		t.Errorf("DMR must correct every injected linear fault, got %v", res.SDC)
	}
	if res.Corrections.OutOfBound == 0 {
		t.Error("DMR should report detected corruptions")
	}
}

func TestPrefillWeightDerivation(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	// Default derives from the A100 perf model: small but positive.
	w := spec.prefillWeight()
	if w <= 0 || w > 20 {
		t.Errorf("derived prefill weight %g implausible", w)
	}
	spec.PrefillWeight = 7.5
	if spec.prefillWeight() != 7.5 {
		t.Error("explicit prefill weight must win")
	}
	spec.PrefillWeight = 0
	spec.GPU = perfmodel.H100
	wH := spec.prefillWeight()
	if wH <= 0 {
		t.Error("H100-derived weight must be positive")
	}
	if wH == w {
		t.Error("different GPUs should give different prefill weights")
	}
}

func TestSweepSharesProfiledBounds(t *testing.T) {
	base := baseSpec(t, arch.MethodNone)
	base.Trials = 15
	sw := Sweep{Base: base, ProfileInputs: 6}
	results, err := sw.Run(arch.MethodNone, arch.MethodRanger, arch.MethodFT2, arch.MethodFT2Offline)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for i, want := range []arch.Method{arch.MethodNone, arch.MethodRanger, arch.MethodFT2, arch.MethodFT2Offline} {
		if results[i].Method != want {
			t.Errorf("result %d method %v, want %v", i, results[i].Method, want)
		}
		if results[i].Result.SDC.Trials != 15 {
			t.Errorf("%v: trials %d", want, results[i].Result.SDC.Trials)
		}
	}
}

func TestSweepWithoutProfilingErrorsForOfflineMethods(t *testing.T) {
	base := baseSpec(t, arch.MethodNone)
	base.OfflineBounds = nil
	base.Trials = 5
	sw := Sweep{Base: base, ProfileInputs: 0}
	if _, err := sw.Run(arch.MethodRanger); err == nil {
		t.Error("offline method without profiling must error")
	}
	// Online-only methods still work.
	if _, err := sw.Run(arch.MethodNone, arch.MethodFT2); err != nil {
		t.Errorf("online methods must not need profiling: %v", err)
	}
}
