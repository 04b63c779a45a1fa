// Package ft2 is the public API of the FT2 reproduction: first-token-
// inspired online fault tolerance on critical layers for generative LLMs
// (Sun et al., HPDC 2025), reimplemented from scratch in Go together with
// every substrate the paper's evaluation depends on.
//
// The typical flow mirrors the paper's Figure 5:
//
//	cfg, _ := ft2.ModelByName("llama2-7b-sim")     // 1. pick a model
//	m, _ := ft2.NewModel(cfg, 42, ft2.FP16)        //    build it
//	crit := ft2.CriticalLayers(cfg)                // 2. structural analysis
//	prot := ft2.Protect(m, ft2.DefaultOptions())   // 3. attach FT2
//	out := prot.Generate(prompt, 60)               // 4. protected inference
//
// Everything else — the fault injector, the baseline protections, the
// campaign runner, the synthetic datasets, and the per-figure experiment
// drivers — is exposed through thin aliases so downstream users need only
// this package for common work, while power users can import the internal
// packages directly (same module).
package ft2

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
	"ft2/internal/serve"
)

// Re-exported core types.
type (
	// Model is a decoder-only transformer with forward hooks.
	Model = model.Model
	// ModelConfig describes a model architecture.
	ModelConfig = model.Config
	// LayerRef addresses one linear layer instance.
	LayerRef = model.LayerRef
	// LayerKind identifies a linear layer's role in a block.
	LayerKind = model.LayerKind
	// Options tunes the FT2 protector.
	Options = core.Options
	// Protector is an attached FT2 instance.
	Protector = core.FT2
	// Dataset is a synthetic evaluation corpus.
	Dataset = data.Dataset
	// Method identifies a protection scheme.
	Method = arch.Method
	// FaultModel selects the bit-flip fault type.
	FaultModel = numerics.FaultModel
	// DType selects the activation storage precision.
	DType = numerics.DType
	// CampaignSpec configures a fault-injection campaign.
	CampaignSpec = campaign.Spec
	// CampaignResult aggregates a campaign's outcome statistics.
	CampaignResult = campaign.Result
	// CampaignJournal checkpoints classified trials for resumable campaigns.
	CampaignJournal = campaign.Journal
	// TrialError is the typed per-trial failure a campaign records instead
	// of aborting (panic, injector-never-fired, timeout).
	TrialError = campaign.TrialError
	// TrialErrorKind is the failure-taxonomy discriminant of a TrialError.
	TrialErrorKind = campaign.TrialErrorKind
	// Bounds is a protected activation range.
	Bounds = protect.Bounds
	// Snapshot is a compact KV-cache checkpoint of a resumable generation
	// (see Model.Checkpoint / RestoreSnapshot).
	Snapshot = model.Snapshot
	// Server is the online protected-inference serving layer: a replica
	// pool with a continuous-batching scheduler behind an HTTP handler.
	Server = serve.Server
	// ServeConfig assembles a Server (model, replicas, queue, deadlines).
	ServeConfig = serve.Config
	// ServeRequest is one generation request against a Server.
	ServeRequest = serve.Request
	// ServeResult is a finished request's tokens plus FT2 telemetry.
	ServeResult = serve.Result
)

// Precision and fault-model constants.
const (
	FP16 = numerics.FP16
	FP32 = numerics.FP32

	SingleBit   = numerics.SingleBit
	DoubleBit   = numerics.DoubleBit
	ExponentBit = numerics.ExponentBit
)

// Protection method constants (the paper's comparison set).
const (
	MethodNone          = arch.MethodNone
	MethodRanger        = arch.MethodRanger
	MethodMaxiMals      = arch.MethodMaxiMals
	MethodGlobalClipper = arch.MethodGlobalClipper
	MethodFT2           = arch.MethodFT2
	MethodFT2Offline    = arch.MethodFT2Offline
)

// Models returns the seven-model zoo of the paper's Table 2 (scaled-down
// simulations; see DESIGN.md for the substitution rationale).
func Models() []ModelConfig { return model.Zoo() }

// ModelByName looks up a zoo configuration.
func ModelByName(name string) (ModelConfig, error) { return model.ConfigByName(name) }

// NewModel builds a model with seeded deterministic weights.
func NewModel(cfg ModelConfig, seed int64, dtype DType) (*Model, error) {
	return model.New(cfg, seed, dtype)
}

// DefaultOptions returns the paper's FT2 configuration: critical-layer
// coverage, first-token bounds scaled 2×, clip-to-bound, NaN correction.
func DefaultOptions() Options { return core.Defaults() }

// Protect attaches FT2 to a model. Use the returned Protector's Generate so
// per-inference bounds reset correctly; call Detach to remove the hook.
func Protect(m *Model, opts Options) *Protector { return core.Attach(m, opts) }

// IsCriticalLayer applies the paper's heuristic: a layer is critical iff no
// scaling operation or activation layer sits between it and the next linear
// layer.
func IsCriticalLayer(cfg ModelConfig, kind LayerKind) bool {
	return arch.IsCritical(cfg.Family, kind)
}

// CriticalLayers lists every critical linear layer instance of a model.
func CriticalLayers(cfg ModelConfig) []LayerRef { return arch.CriticalLayers(cfg) }

// LoadDataset builds one of the synthetic evaluation datasets by name:
// squad-sim, xtreme-sim, gsm8k-sim (plus the Figure 3 profiling corpora
// chatprompts-sim, tweeteval-sim, mbpp-sim, opus-sim).
func LoadDataset(name string, inputs int) (*Dataset, error) { return data.ByName(name, inputs) }

// RunCampaign executes a statistical fault-injection campaign.
func RunCampaign(spec CampaignSpec) (CampaignResult, error) { return campaign.Run(spec) }

// RunCampaignContext executes a campaign under a context: cancellation and
// deadline expiry stop the run at the next hook boundary and return a
// partial Result over the trials that completed (alongside ctx.Err()).
// Set spec.Journal (see OpenCampaignJournal) to make the run resumable.
func RunCampaignContext(ctx context.Context, spec CampaignSpec) (CampaignResult, error) {
	return campaign.RunContext(ctx, spec)
}

// OpenCampaignJournal opens (resume=true: appends to and replays; else
// truncates) an append-only JSONL trial journal for checkpoint/resume.
func OpenCampaignJournal(path string, resume bool) (*CampaignJournal, error) {
	return campaign.OpenJournal(path, resume)
}

// ProfileBounds runs fault-free generations over prompts and records every
// layer's activation range — the offline profiling workflow the baseline
// methods require.
func ProfileBounds(m *Model, prompts [][]int, genTokens int) *protect.Store {
	return protect.OfflineProfile(m, prompts, genTokens)
}

// FaultSite is one sampled fault location (step, layer, element, bits).
type FaultSite = fault.Site

// FaultPlan samples fault sites over an inference configuration with
// execution-time-weighted step exposure.
type FaultPlan = fault.Plan

// NewFaultPlan builds a sampling plan for statistical fault injection.
// prefillWeight is the prefill pass's execution-time weight in decode-step
// equivalents (<=0 defaults to 1; perfmodel.PrefillStepWeight supplies
// hardware-derived values).
func NewFaultPlan(cfg ModelConfig, promptLen, genTokens int, d DType, fm FaultModel, prefillWeight float64) *FaultPlan {
	return fault.NewPlan(cfg, promptLen, genTokens, d, fm, prefillWeight)
}

// NewInjector builds a single-fault injector for a sampled site; register
// its Hook on a model before any protection hooks.
func NewInjector(site FaultSite, d DType) *fault.Injector {
	return fault.NewInjector(site, d)
}

// NewServer builds the online serving layer: N model replicas behind a
// continuous-batching scheduler, served generations bit-identical to
// direct GenerateInto runs. Mount Server.Handler on an http.Server, or
// drive it programmatically via Submit.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// The resumable-generation methods on Model (Prefill, DecodeStep, Restore)
// panic on misuse — inside the engine that is a programmer error by
// contract. The wrappers below are the public-API boundary: they validate
// first and return errors, so a caller driving generation from untrusted
// input (as the serving layer does) can never crash the process.

// Prefill validates the prompt against m's configuration and runs the
// prefill pass, returning the first decoded token.
func Prefill(m *Model, prompt []int) (int, error) {
	if len(prompt) == 0 {
		return 0, fmt.Errorf("ft2: empty prompt")
	}
	if len(prompt) > m.Cfg.MaxSeq {
		return 0, fmt.Errorf("ft2: prompt %d exceeds max seq %d", len(prompt), m.Cfg.MaxSeq)
	}
	for i, tok := range prompt {
		if tok < 0 || tok >= m.Cfg.Vocab {
			return 0, fmt.Errorf("ft2: prompt token %d at position %d outside vocabulary [0,%d)", tok, i, m.Cfg.Vocab)
		}
	}
	return m.Prefill(prompt), nil
}

// DecodeStep validates the generation state — a Prefill or RestoreSnapshot
// must have happened, the sequence budget must not be exhausted — and runs
// one decode step.
func DecodeStep(m *Model, tok int) (int, error) {
	if !m.Started() {
		return 0, fmt.Errorf("ft2: DecodeStep before Prefill or RestoreSnapshot")
	}
	if m.SeqLen() >= m.Cfg.MaxSeq {
		return 0, fmt.Errorf("ft2: sequence budget exhausted (%d of %d positions used)", m.SeqLen(), m.Cfg.MaxSeq)
	}
	if tok < 0 || tok >= m.Cfg.Vocab {
		return 0, fmt.Errorf("ft2: token %d outside vocabulary [0,%d)", tok, m.Cfg.Vocab)
	}
	return m.DecodeStep(tok), nil
}

// RestoreSnapshot validates the snapshot against m's architecture and
// restores it, returning the token to feed the next DecodeStep. An empty
// snapshot or one captured from a different architecture is an error, not
// a panic.
func RestoreSnapshot(m *Model, s *Snapshot) (int, error) {
	if err := s.Compatible(m.Cfg); err != nil {
		return 0, err
	}
	return m.Restore(s), nil
}
