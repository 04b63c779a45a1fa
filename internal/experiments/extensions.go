package experiments

import (
	"context"
	"fmt"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/report"
)

// uniformPolicy assigns tier to every layer kind of the family.
func uniformPolicy(family model.Family, tier protect.Tier) *protect.Policy {
	p := &protect.Policy{Tiers: make(map[model.LayerKind]protect.Tier)}
	for _, k := range family.LayerKinds() {
		p.Tiers[k] = tier
	}
	return p
}

// policyRow is one protection under comparison: a campaign method, or a tier
// policy that replaces it.
type policyRow struct {
	name   string
	method arch.Method
	policy *protect.Policy
}

func (r policyRow) protected() bool { return r.method == arch.MethodFT2 || r.policy != nil }

// overhead is the paired cost of a generation with the row's controller
// installed over the same generation bare, in percent. m must be pristine:
// the controller captures its own ABFT reference sums.
func (r policyRow) overhead(p Params, m *model.Model, ds *data.Dataset) (pct, spread float64) {
	if !r.protected() {
		return 0, 0
	}
	f := core.NewHybrid(m, core.Defaults(), r.policy, nil)
	return pairGen(p, genSide(m, ds, f), genSide(m, ds, nil)).OverheadPct()
}

// ExtensionDMR compares FT2 against duplication in place (DMR), the
// high-overhead 0%-SDC alternative of the paper's limitations section:
// reliability under EXP faults plus paired generation overhead.
func ExtensionDMR(ctx context.Context, p Params) (*report.Table, error) {
	const modelName, dsName = "llama2-7b-sim", "squad-sim"
	t := report.NewTable("Extension: FT2 vs duplication in place (llama2-7b-sim, squad-sim, EXP faults; overhead paired)",
		"Protection", "SDC %", "±95% CI", "Overhead % vs unprotected", "± spread")
	cfg, err := model.ConfigByName(modelName)
	if err != nil {
		return nil, err
	}
	m, err := model.New(cfg, p.Seed, numerics.FP16)
	if err != nil {
		return nil, err
	}
	ds := data.SquadSim(1)
	for _, row := range []policyRow{
		{"No Protection", arch.MethodNone, nil},
		{"FT2", arch.MethodFT2, nil},
		{"DMR (duplication in place)", arch.MethodNone, uniformPolicy(cfg.Family, protect.TierDMR)},
	} {
		res, err := cell(ctx, p, modelName, dsName, numerics.ExponentBit, row.method,
			func(s *campaign.Spec) { s.Policy = row.policy })
		if err != nil {
			return partialOnCancel(t, err)
		}
		pct, spread := row.overhead(p, m, ds)
		t.AddRow(row.name, res.SDC.Percent(), res.SDC.CI95()*100, pct, spread)
	}
	return t, nil
}

// paretoPolicies are the four uniform single-method policies and the
// adaptive hybrid derived from qwen2-1.5b-sim's ft2policy vulnerability
// profile: K/Q, whose faults the softmax renormalises away, stay
// unprotected; every other kind stacks ABFT recompute (repairs transient
// activation flips exactly) under the FT2 clamp (bounds the persistent-weight
// and KV-cache fallout an input-consistent recompute cannot see).
func paretoPolicies(family model.Family) []policyRow {
	hybrid := uniformPolicy(family, protect.TierABFTFT2)
	hybrid.Tiers[model.KProj], hybrid.Tiers[model.QProj] = protect.TierNone, protect.TierNone
	return []policyRow{
		{"none", arch.MethodNone, nil},
		{"ft2", arch.MethodFT2, nil},
		{"abft", arch.MethodNone, uniformPolicy(family, protect.TierABFT)},
		{"dmr", arch.MethodNone, uniformPolicy(family, protect.TierDMR)},
		{"hybrid", arch.MethodNone, hybrid},
	}
}

const paretoModel = "qwen2-1.5b-sim"

// paretoShape is the short generation both halves of ExtensionPareto run:
// 16 tokens with the answer window inside them keeps KV faults in range.
func paretoShape(ds *data.Dataset) *data.Dataset {
	ds.GenTokens = 16
	ds.AnswerLo, ds.AnswerHi = 8, 12
	return ds
}

// paretoCell runs pol's mixed-target campaign: 30% persistent weight
// corruption, 20% KV-cache flips, 50% transient activation flips. Every
// policy shares one BaseSeed, so all face the identical fault-site sequence
// (seed+2000 is the sequence the table was first published with).
func paretoCell(ctx context.Context, p Params, pol policyRow) (campaign.Result, error) {
	return cell(ctx, p, paretoModel, "squad-sim", numerics.ExponentBit, pol.method, func(s *campaign.Spec) {
		paretoShape(s.Dataset)
		s.Targets = fault.TargetMix{Weight: 0.3, KV: 0.2}
		s.Policy = pol.policy
		s.BaseSeed = p.Seed + 2000
	})
}

// ExtensionPareto places five protection policies on the SDC-vs-cost plane:
// SDC over the mixed-target campaign, cost as the paired overhead of a
// generation with the policy's controller installed over the same
// generation bare.
func ExtensionPareto(ctx context.Context, p Params) (*report.Table, error) {
	t := report.NewTable("Extension: protection policies on the SDC-vs-cost plane (qwen2-1.5b-sim, squad-sim, EXP faults on 30% weights / 20% KV / 50% activations; overhead paired)",
		"Policy", "Tiers", "SDC", "SDC %", "±95% CI", "Overhead % vs unprotected", "± spread")
	cfg, err := model.ConfigByName(paretoModel)
	if err != nil {
		return nil, err
	}
	m, err := model.New(cfg, p.Seed, numerics.FP16)
	if err != nil {
		return nil, err
	}
	ds := paretoShape(data.SquadSim(1))
	for _, pol := range paretoPolicies(cfg.Family) {
		res, err := paretoCell(ctx, p, pol)
		if err != nil {
			return partialOnCancel(t, err)
		}
		tiers := "none"
		if pol.policy != nil {
			tiers = pol.policy.String()
		} else if pol.protected() {
			tiers = "ft2 on critical kinds"
		}
		pct, spread := pol.overhead(p, m, ds)
		t.AddRow(pol.name, tiers, fmt.Sprintf("%d/%d", res.SDC.Successes, res.SDC.Trials),
			res.SDC.Percent(), res.SDC.CI95()*100, pct, spread)
	}
	return t, nil
}
