package experiments

import (
	"context"
	"fmt"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/report"
	"ft2/internal/stats"
)

// Fig3 measures fault-free output correctness when protecting with bounds
// profiled from alternative datasets (the paper's dataset-unavailability
// scenario): the target is SQuAD-like QA on the OPT model, the profiling
// sources are the target's own split plus the four alternative corpora.
// Protection uses the existing range-restriction behaviour (clip to zero),
// the configuration whose false positives the paper's Figure 3 exposes.
func Fig3(ctx context.Context, p Params) (*report.Table, error) {
	const modelName = "opt-6.7b-sim"
	cfg, err := model.ConfigByName(modelName)
	if err != nil {
		return nil, err
	}
	// Fault-free runs are cheap, and the Figure 3 effect is a ~1-2% drop in
	// correct outputs, so this driver uses a much larger evaluation set than
	// the injection campaigns to resolve it.
	evalInputs := p.Inputs * 24
	if evalInputs < 48 {
		evalInputs = 48
	}
	target := data.SquadSim(evalInputs)

	t := report.NewTable("Figure 3: fault-free correct-output % by bound-profiling source (opt-6.7b-sim, squad-sim target)",
		"Bounds source", "Correct %", "±95% CI", "False-positive corrections/gen")

	// Baseline: no protection is 100% correct by construction.
	unprot, _, _, err := campaign.FaultFreeCorrectness(cfg, p.Seed, numerics.FP16, target, arch.MethodNone, nil, protect.ClipToZero)
	if err != nil {
		return nil, err
	}
	t.AddRow("None (no protection)", unprot.Percent(), unprot.CI95()*100, 0.0)

	profile := func(ds *data.Dataset) (*protect.Store, error) {
		m, err := model.New(cfg, p.Seed, numerics.FP16)
		if err != nil {
			return nil, err
		}
		return protect.OfflineProfile(m, ds.Prompts(), ds.GenTokens), nil
	}

	// Bounds from the target's own profiling split.
	own, err := profile(target.ProfileSplit(p.ProfileInputs))
	if err != nil {
		return nil, err
	}
	res, corr, _, err := campaign.FaultFreeCorrectness(cfg, p.Seed, numerics.FP16, target, arch.MethodFT2Offline, own, protect.ClipToZero)
	if err != nil {
		return nil, err
	}
	t.AddRow("squad-sim (target dataset)", res.Percent(), res.CI95()*100,
		float64(corr.Total())/float64(len(target.Inputs)))

	// Bounds from the four alternative corpora.
	for _, alt := range data.AlternativeDatasets(p.ProfileInputs) {
		if err := ctx.Err(); err != nil {
			return partialOnCancel(t, err)
		}
		altBounds, err := profile(alt)
		if err != nil {
			return nil, err
		}
		res, corr, _, err := campaign.FaultFreeCorrectness(cfg, p.Seed, numerics.FP16, target, arch.MethodFT2Offline, altBounds, protect.ClipToZero)
		if err != nil {
			return nil, err
		}
		t.AddRow(alt.Name, res.Percent(), res.CI95()*100,
			float64(corr.Total())/float64(len(target.Inputs)))
	}
	return t, nil
}

// cleanCell sums a fault-free differential over some inputs: FT2 against
// the unprotected model, token for token.
type cleanCell struct {
	gens, changed, answers int       // generations, those FT2 changed, answers it changed
	firstStep              int       // earliest differing step; -1 when none differs
	linf                   float64   // largest final-logit L∞ distance
	clips, tokens          int       // FT2 corrections, over this many generated tokens
	teacherHits            int       // unprotected tokens equal to the teacher's next token
	margins                []float64 // the unprotected runs' top-1 − top-2 logit gap per step
}

// runCleanCell runs the differential on every input of ds, with the model's
// teacher weight set to gamma on a copy of cfg.
func runCleanCell(p Params, cfg model.Config, ds *data.Dataset, dt numerics.DType, gamma float32) (cleanCell, error) {
	cfg.TeacherWeight = gamma
	res, corr, divs, err := campaign.FaultFreeCorrectness(cfg, p.Seed, dt, ds, arch.MethodFT2, nil, protect.ClipToBound)
	if err != nil {
		return cleanCell{}, err
	}
	c := cleanCell{gens: res.Trials, answers: res.Trials - res.Successes, firstStep: -1,
		clips: corr.Total(), tokens: len(divs) * ds.GenTokens}
	for _, d := range divs {
		if d.FirstStep >= 0 {
			c.add(cleanCell{changed: 1, firstStep: d.FirstStep})
		}
		c.linf = max(c.linf, d.LogitLInf)
		c.teacherHits += d.TeacherHits
		c.margins = append(c.margins, d.Margins...)
	}
	return c, nil
}

func (c *cleanCell) add(o cleanCell) {
	if o.firstStep >= 0 && (c.firstStep < 0 || o.firstStep < c.firstStep) {
		c.firstStep = o.firstStep
	}
	c.gens, c.changed, c.answers = c.gens+o.gens, c.changed+o.changed, c.answers+o.answers
	c.linf = max(c.linf, o.linf)
	c.clips, c.tokens, c.teacherHits = c.clips+o.clips, c.tokens+o.tokens, c.teacherHits+o.teacherHits
	c.margins = append(c.margins, o.margins...)
}

func (c cleanCell) agreement() float64 { return float64(c.teacherHits) / float64(c.tokens) }

// row renders the cell after its label columns; the margin column is "-"
// here, and filled in only in the all-cells rows.
func (c cleanCell) row(labels ...interface{}) []interface{} {
	var first interface{} = "-"
	if c.firstStep >= 0 {
		first = c.firstStep
	}
	return append(labels, fmt.Sprintf("%d/%d", c.changed, c.gens), c.answers, first, c.linf,
		1000*float64(c.clips)/float64(c.tokens), c.agreement(), "-")
}

// ExtensionClean is the fault-free differential: on every model × dataset
// cell, at each activation dtype and teacher weight γ (set on a copy of the
// zoo config), how many generations does FT2 change against the
// unprotected model, how many answers, how early and by how much at the
// final logits; how often it clips a clean value; and how often the clean
// token is the one the teacher prior pushes toward, i.e. how much of the
// answer the prior decides. Each (dtype, γ) block ends in a row over all
// cells, whose agreement column also names the worst cell's and whose last
// column gives the 5th and 50th percentile of the unprotected runs' top-1 −
// top-2 logit margin over every step of every cell.
func ExtensionClean(ctx context.Context, p Params) (*report.Table, error) {
	inputs := p.Inputs * 4 // fault-free runs are cheap: 20 inputs per cell at Default()
	t := report.NewTable(fmt.Sprintf("Extension: does FT2 change a clean answer? FT2 vs unprotected, fault-free (%d inputs per cell)", inputs),
		"Model", "Dataset", "DType", "γ", "Generations changed", "Answers changed",
		"First differing step", "Final-logit L∞", "Clean clips/1k tok", "Teacher agreement",
		"Clean top-2 margin p05 / p50")
	for _, gamma := range []float32{0, 1, 2, 4} {
		for _, dt := range []numerics.DType{numerics.FP16, numerics.FP32} {
			total, worst := cleanCell{firstStep: -1}, 1.0
			for _, pair := range modelDatasetPairs() {
				if err := ctx.Err(); err != nil {
					return partialOnCancel(t, err)
				}
				cfg, err := model.ConfigByName(pair[0])
				if err != nil {
					return nil, err
				}
				ds, err := data.ByName(pair[1], inputs)
				if err != nil {
					return nil, err
				}
				c, err := runCleanCell(p, cfg, ds, dt, gamma)
				if err != nil {
					return nil, err
				}
				t.AddRow(c.row(pair[0], pair[1], dt, fmt.Sprint(gamma))...)
				total.add(c)
				worst = min(worst, c.agreement())
			}
			row := total.row("all cells", "-", dt, fmt.Sprint(gamma))
			row[len(row)-2] = fmt.Sprintf("%.3f (worst cell %.3f)", total.agreement(), worst)
			row[len(row)-1] = fmt.Sprintf("%.3f / %.3f", stats.Percentile(total.margins, 5), stats.Percentile(total.margins, 50))
			t.AddRow(row...)
		}
	}
	return t, nil
}
