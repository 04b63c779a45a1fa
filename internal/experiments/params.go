// Package experiments contains one driver per table and figure of the
// paper's evaluation. Every driver returns a report.Table with the same
// rows/series the paper plots, sized by a Params value so the same code
// backs the quick benchmark harness, the unit tests, and the full
// regeneration run of cmd/ft2bench.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ft2/internal/campaign"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/report"
)

// Params sizes a campaign. The paper runs 50 inputs × 500 injections per
// cell (≈0.006–0.37% error margins); the defaults here are scaled to
// single-core CPU budgets — the printed confidence intervals make the
// precision explicit.
type Params struct {
	// Trials is the number of fault injections per experiment cell.
	Trials int
	// Inputs is the number of evaluation inputs per dataset.
	Inputs int
	// ProfileInputs sizes the offline profiling split (the baselines' 20%
	// training corpus stand-in).
	ProfileInputs int
	// Seed is the base seed; model weights use Seed, trial RNGs derive
	// from it.
	Seed int64
	// Workers caps campaign parallelism (0 = GOMAXPROCS).
	Workers int
	// TrialTimeout aborts a trial with no token progress for this long
	// (0 disables the watchdog). See campaign.Spec.TrialTimeout.
	TrialTimeout time.Duration
	// TrialRetries bounds per-trial retry attempts (0 = campaign default).
	TrialRetries int
	// Journal, when non-nil, checkpoints every campaign cell for resume;
	// cells are distinguished by their spec fingerprints, so one journal
	// backs a whole experiment run.
	Journal *campaign.Journal
	// NoFork disables golden-checkpoint forking in every campaign cell
	// (results are bit-identical either way; see campaign.Spec.NoFork).
	NoFork bool
	// CheckpointStride overrides the golden-checkpoint stride (0 = the
	// per-cell ⌈√GenTokens⌉ default; see campaign.Spec.CheckpointStride).
	CheckpointStride int
}

// partialOnCancel lets a driver hand back the table rows it finished before
// the context was canceled (or its deadline expired), annotated as partial.
// Non-cancellation errors discard the table as before.
func partialOnCancel(t *report.Table, err error) (*report.Table, error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		t.AddNote(fmt.Sprintf("interrupted: partial table (%v)", err))
		return t, err
	}
	return nil, err
}

// Quick returns a small smoke-test configuration for tests and the
// testing.B benchmark harness (every driver still runs end to end; the
// confidence intervals are wide at this size).
func Quick() Params {
	return Params{Trials: 12, Inputs: 2, ProfileInputs: 6, Seed: 42}
}

// Default returns the full-regeneration configuration used by cmd/ft2bench.
func Default() Params {
	return Params{Trials: 150, Inputs: 5, ProfileInputs: 60, Seed: 42}
}

// Driver regenerates one paper artifact. Run threads the context through
// every campaign so experiments honor cancellation and deadlines; on
// interruption a driver returns the partially-built table alongside the
// context's error.
type Driver struct {
	ID          string
	Description string
	Run         func(context.Context, Params) (*report.Table, error)
}

// static adapts a parameterless table builder to the Driver signature.
func static(f func() *report.Table) func(context.Context, Params) (*report.Table, error) {
	return func(context.Context, Params) (*report.Table, error) { return f(), nil }
}

// Registry lists every driver in paper order.
func Registry() []Driver {
	return []Driver{
		{"table1", "Layer criticality and protection coverage matrix", static(Table1)},
		{"table2", "Model zoo: reference vs simulated configurations", static(Table2)},
		{"fig2", "SDC with protections, Llama2+GSM8K under EXP faults", Fig2},
		{"fig3", "Fault-free correctness with bounds from alternative datasets", Fig3},
		{"fig4", "Offline bound-profiling hours on A100/H100", static(Fig4)},
		{"fig6", "Leave-one-out layer criticality (GPT-J + SQuAD)", Fig6},
		{"fig7", "Bit-flip anatomy: exponent blow-up and NaN encoding", static(Fig7)},
		{"fig8", "Neuron value distribution and NaN-vulnerable share per layer", Fig8},
		{"fig9", "SDC vs first-token bound scaling factor (Qwen2 + GSM8K)", Fig9},
		{"fig10", "First-token share of inference time", static(Fig10)},
		{"fig11", "Resilience of first-token generation", Fig11},
		{"fig12", "Large-value outlier channels in Llama-family MLP layers", Fig12},
		{"fig13", "Main comparison: 7 models × 3 datasets × 3 fault models", Fig13},
		{"fig14", "FT2 runtime overhead (measured on the Go engine)", Fig14},
		{"fig15", "Sensitivity to data type (FP16 vs FP32)", Fig15},
		{"fig16", "Sensitivity to hardware (A100 vs H100)", Fig16},
		{"ablation-clip", "Ablation: clip-to-bound vs clip-to-zero", AblationClipMode},
		{"ablation-coverage", "Ablation: critical-only vs all-layer protection", AblationCoverage},
		{"ext-dmr", "Extension: FT2 vs duplication in place (0%-SDC alternative)", ExtensionDMR},
		{"ext-pareto", "Extension: five protection policies on the SDC-vs-overhead plane", ExtensionPareto},
		{"ext-clean", "Extension: does FT2 change a clean answer? (fault-free differential vs unprotected)", ExtensionClean},
	}
}

// ByID looks up a driver.
func ByID(id string) (Driver, error) {
	for _, d := range Registry() {
		if d.ID == id {
			return d, nil
		}
	}
	return Driver{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// modelDatasetPairs returns the valid evaluation combinations of Table 2:
// all models on the QA datasets, math only for Llama2 and Qwen2-7B.
func modelDatasetPairs() [][2]string {
	var out [][2]string
	for _, cfg := range model.Zoo() {
		out = append(out, [2]string{cfg.Name, "squad-sim"}, [2]string{cfg.Name, "xtreme-sim"})
		if cfg.TaskTypes == "QA/Math" {
			out = append(out, [2]string{cfg.Name, "gsm8k-sim"})
		}
	}
	return out
}

// faultModels lists the paper's three fault models.
var faultModels = numerics.AllFaultModels
