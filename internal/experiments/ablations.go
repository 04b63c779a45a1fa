package experiments

import (
	"context"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/report"
)

// AblationClipMode compares FT2's clip-to-bound against the CNN-era
// clip-to-zero on FT2's coverage (Take-away #8: generative LLMs have
// legitimate large activations, so clipping to zero causes deviations).
func AblationClipMode(ctx context.Context, p Params) (*report.Table, error) {
	t := report.NewTable("Ablation: out-of-bound correction target (vicuna-7b-sim, squad-sim, EXP faults)",
		"Clip mode", "SDC %", "±95% CI")
	for _, mode := range []protect.ClipMode{protect.ClipToBound, protect.ClipToZero} {
		res, err := cell(ctx, p, "vicuna-7b-sim", "squad-sim", numerics.ExponentBit, arch.MethodFT2,
			func(s *campaign.Spec) { s.FT2Opts.Mode = mode })
		if err != nil {
			return partialOnCancel(t, err)
		}
		t.AddRow(mode.String(), res.SDC.Percent(), res.SDC.CI95()*100)
	}
	return t, nil
}

// AblationCoverage compares critical-only protection with all-layer
// protection: reliability and measured cost (Sec. 4.1's ~2× overhead
// argument for the naïve configuration). Cost is a paired time ratio — of
// each coverage over the bare model, and of all-layer over critical-only
// directly — so the columns can only invert if the code does.
func AblationCoverage(ctx context.Context, p Params) (*report.Table, error) {
	const modelName = "llama2-7b-sim"
	t := report.NewTable("Ablation: protection coverage (llama2-7b-sim, squad-sim, EXP faults; time ratios paired)",
		"Coverage", "SDC %", "±95% CI", "Protected layers",
		"Time vs unprotected", "± spread", "Time vs critical-only", "± spread")
	cfg, err := model.ConfigByName(modelName)
	if err != nil {
		return nil, err
	}
	m, err := model.New(cfg, p.Seed, numerics.FP16)
	if err != nil {
		return nil, err
	}
	ds := data.SquadSim(1)
	allOpts := core.Defaults()
	allOpts.ProtectAllLayers = true
	critical, all := core.New(m, core.Defaults()), core.New(m, allOpts)
	for _, c := range []struct {
		label string
		f     *core.FT2
	}{{"critical layers only (FT2)", critical}, {"all linear layers", all}} {
		res, err := cell(ctx, p, modelName, "squad-sim", numerics.ExponentBit, arch.MethodFT2,
			func(s *campaign.Spec) { s.FT2Opts.ProtectAllLayers = c.f == all })
		if err != nil {
			return partialOnCancel(t, err)
		}
		vsBare := pairGen(p, genSide(m, ds, c.f), genSide(m, ds, nil))
		vsCritical := Paired{Ratio: 1}
		if c.f == all {
			vsCritical = pairGen(p, genSide(m, ds, all), genSide(m, ds, critical))
		}
		t.AddRow(c.label, res.SDC.Percent(), res.SDC.CI95()*100, c.f.ProtectedSiteCount(),
			vsBare.Ratio, vsBare.Spread, vsCritical.Ratio, vsCritical.Spread)
	}
	return t, nil
}
