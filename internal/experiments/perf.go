package experiments

import (
	"context"

	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/perfmodel"
	"ft2/internal/report"
)

// perfWorkloads returns the (model, dataset) reference workloads used by
// the perfmodel-driven figures.
func perfWorkloads() []struct {
	Model   model.Config
	Dataset *data.Dataset
} {
	var out []struct {
		Model   model.Config
		Dataset *data.Dataset
	}
	for _, pair := range modelDatasetPairs() {
		cfg, err := model.ConfigByName(pair[0])
		if err != nil {
			panic(err) // zoo names are static
		}
		ds, err := data.ByName(pair[1], 1)
		if err != nil {
			panic(err)
		}
		out = append(out, struct {
			Model   model.Config
			Dataset *data.Dataset
		}{cfg, ds})
	}
	return out
}

// Fig4 reports the offline bound-profiling cost per task on both GPUs
// (log-scale hours in the paper).
func Fig4() *report.Table {
	t := report.NewTable("Figure 4: offline bound-profiling time (hours; 20% of training set / full validation set)",
		"Model", "Dataset", "Profiling inputs", "A100 (h)", "H100 (h)")
	for _, wl := range perfWorkloads() {
		w := perfmodel.Workload{
			Params: wl.Model.RefParams, PromptTokens: wl.Dataset.RefPromptTokens,
			GenTokens: wl.Dataset.GenTokens, DType: numerics.FP16,
		}
		t.AddRow(wl.Model.Name, wl.Dataset.Name, wl.Dataset.RefProfilingInputs,
			perfmodel.ProfilingHours(perfmodel.A100, w, wl.Dataset.RefProfilingInputs),
			perfmodel.ProfilingHours(perfmodel.H100, w, wl.Dataset.RefProfilingInputs))
	}
	return t
}

// Fig10 reports the first-token generation's share of total inference time.
func Fig10() *report.Table {
	t := report.NewTable("Figure 10: first-token generation as % of inference time",
		"Model", "Dataset", "GPU", "First token %", "Inference (s)")
	for _, wl := range perfWorkloads() {
		w := perfmodel.Workload{
			Params: wl.Model.RefParams, PromptTokens: wl.Dataset.RefPromptTokens,
			GenTokens: wl.Dataset.GenTokens, DType: numerics.FP16,
		}
		for _, g := range perfmodel.GPUs {
			t.AddRow(wl.Model.Name, wl.Dataset.Name, g.Name,
				perfmodel.FirstTokenFraction(g, w)*100,
				perfmodel.InferenceTime(g, w).Seconds())
		}
	}
	return t
}

// genSide returns one side of a Pair: a squad-style generation of ds's first
// prompt on m, bare when f is nil. The protected side installs and removes
// f's hook inside the call, so both sides of a pair run on one model and
// stream the same weights from the same addresses.
func genSide(m *model.Model, ds *data.Dataset, f *core.FT2) func() {
	buf := make([]int, 0, ds.GenTokens)
	prompt := ds.Inputs[0].Prompt
	if f == nil {
		return func() { m.GenerateInto(buf, prompt, ds.GenTokens) }
	}
	return func() {
		f.Install()
		f.GenerateInto(buf, prompt, ds.GenTokens)
		f.Detach()
	}
}

// pairGen warms both sides up (scratch arenas, KV slabs, the bounds store)
// and pairs them. One generation is a few milliseconds and the per-pair
// ratios of a shared host spread by ~10%, so the pair count follows p.Trials:
// 300 pairs at the default size put the median's own error near half a
// percent.
func pairGen(p Params, a, b func()) Paired {
	a()
	b()
	return Pair(2*max(4, p.Trials), a, b)
}

// Fig14 measures the wall-clock overhead of FT2 on the Go engine itself:
// generation with the FT2 hook installed paired against the same generation
// bare, plus the bounds-store memory footprint (the paper's 288–512 B).
func Fig14(ctx context.Context, p Params) (*report.Table, error) {
	t := report.NewTable("Figure 14: measured FT2 time overhead on the Go engine (paired)",
		"Model", "Overhead %", "± spread", "Protected layers", "Bounds bytes (fp16)")
	ds := data.SquadSim(1)
	for _, cfg := range model.Zoo() {
		if err := ctx.Err(); err != nil {
			return partialOnCancel(t, err)
		}
		m, err := model.New(cfg, p.Seed, numerics.FP16)
		if err != nil {
			return nil, err
		}
		f := core.New(m, core.Defaults())
		pct, spread := pairGen(p, genSide(m, ds, f), genSide(m, ds, nil)).OverheadPct()
		t.AddRow(cfg.Name, pct, spread, f.ProtectedSiteCount(), f.Bounds().MemoryBytes(numerics.FP16))
	}
	return t, nil
}
