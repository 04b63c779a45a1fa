package model

import (
	"fmt"

	"ft2/internal/tensor"
)

// Config describes a model in the zoo. The scaled-down dimensions keep
// inference tractable on a CPU while preserving every architectural feature
// the criticality analysis depends on; RefParams records the real model's
// parameter count for Table 2 and the performance model.
type Config struct {
	Name       string
	Family     Family
	Vocab      int
	Hidden     int
	Heads      int
	FFN        int // MLP inner width
	Blocks     int
	MaxSeq     int
	Activation tensor.ActivationKind
	AttnBias   bool // QKV/out bias (OPT: yes, Qwen: QKV only in the real model; simplified to all)
	// LogitScale multiplies the raw logits (cosmetic for greedy decoding).
	LogitScale float32
	// TeacherWeight γ adds a deterministic next-token prior to the residual
	// stream before the final norm, at γ× the calibrated sane stream norm
	// (γ = 4 on every zoo model). It stands in for a trained model's low
	// per-token entropy: random-weight models have near-tie logit gaps, so
	// any perturbation flips tokens, which a 7B trained model's confident
	// margins do not allow. A sane stream is dominated by the prior, so
	// small in-bound corruptions stay masked, while extreme out-of-bound
	// values blow the stream norm up and drown it and NaN poisons it,
	// reproducing the paper's fault-magnitude separation at small scale
	// (see DESIGN.md §5).
	TeacherWeight float32

	// Real-model metadata for Table 2 and the perf model.
	RefParams float64 // parameters of the reference model (e.g. 6.66e9)
	RefHidden int     // hidden size of the reference model
	RefBlocks int     // decoder blocks of the reference model
	TaskTypes string  // "QA" or "QA/Math"
}

// HeadDim returns Hidden/Heads, panicking on a non-divisible config.
func (c Config) HeadDim() int {
	if c.Hidden%c.Heads != 0 {
		panic(fmt.Sprintf("model %s: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads))
	}
	return c.Hidden / c.Heads
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Vocab <= 0 || c.Hidden <= 0 || c.Heads <= 0 || c.FFN <= 0 || c.Blocks <= 0 || c.MaxSeq <= 0:
		return fmt.Errorf("model %s: non-positive dimension", c.Name)
	case c.Hidden%c.Heads != 0:
		return fmt.Errorf("model %s: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.Heads)
	case c.HeadDim()%2 != 0 && c.Family != FamilyOPT:
		return fmt.Errorf("model %s: rotary families need an even head dim", c.Name)
	}
	return nil
}

// LinearLayers enumerates every linear layer of the model in forward order.
func (c Config) LinearLayers() []LayerRef {
	kinds := c.Family.LayerKinds()
	out := make([]LayerRef, 0, c.Blocks*len(kinds))
	for b := 0; b < c.Blocks; b++ {
		for _, k := range kinds {
			out = append(out, LayerRef{Block: b, Kind: k})
		}
	}
	return out
}

// OutDim returns the output width of a layer kind under this config.
func (c Config) OutDim(k LayerKind) int {
	switch k {
	case KProj, QProj, VProj, OutProj, FC2, DownProj:
		return c.Hidden
	case FC1, GateProj, UpProj:
		return c.FFN
	default:
		panic("model: unknown layer kind")
	}
}

// InDim returns the input width of a layer kind under this config.
func (c Config) InDim(k LayerKind) int {
	switch k {
	case KProj, QProj, VProj, OutProj, FC1, GateProj, UpProj:
		return c.Hidden
	case FC2, DownProj:
		return c.FFN
	default:
		panic("model: unknown layer kind")
	}
}

// ParamCount returns the simulated model's exact parameter count.
func (c Config) ParamCount() int {
	n := c.Vocab * c.Hidden // token embedding (tied LM head)
	if c.Family == FamilyOPT {
		n += c.MaxSeq * c.Hidden // learned positions
	}
	for _, ref := range c.LinearLayers() {
		n += c.InDim(ref.Kind) * c.OutDim(ref.Kind)
		if c.layerHasBias(ref.Kind) {
			n += c.OutDim(ref.Kind)
		}
	}
	// Norms: per block 2 norms (+ biases for LayerNorm families) + final norm.
	perNorm := c.Hidden
	if c.Family != FamilyLlama {
		perNorm *= 2 // gamma + beta
	}
	n += (2*c.Blocks + 1) * perNorm
	return n
}

func (c Config) layerHasBias(k LayerKind) bool {
	switch k {
	case KProj, QProj, VProj, OutProj:
		return c.AttnBias
	case FC1, FC2:
		return c.Family != FamilyLlama
	default:
		return false
	}
}

// Zoo returns the seven-model zoo of Table 2, scaled down per DESIGN.md.
// Names carry a "-sim" suffix to make the substitution explicit.
func Zoo() []Config {
	return []Config{
		{
			Name: "opt-6.7b-sim", Family: FamilyOPT,
			Vocab: 384, Hidden: 96, Heads: 8, FFN: 384, Blocks: 3, MaxSeq: 256,
			Activation: tensor.ActReLU, AttnBias: true, LogitScale: 6, TeacherWeight: 4,
			RefParams: 6.66e9, RefHidden: 4096, RefBlocks: 32, TaskTypes: "QA",
		},
		{
			Name: "opt-2.7b-sim", Family: FamilyOPT,
			Vocab: 384, Hidden: 64, Heads: 8, FFN: 256, Blocks: 2, MaxSeq: 256,
			Activation: tensor.ActReLU, AttnBias: true, LogitScale: 6, TeacherWeight: 4,
			RefParams: 2.65e9, RefHidden: 2560, RefBlocks: 32, TaskTypes: "QA",
		},
		{
			Name: "gptj-6b-sim", Family: FamilyGPTJ,
			Vocab: 384, Hidden: 96, Heads: 8, FFN: 384, Blocks: 3, MaxSeq: 256,
			Activation: tensor.ActGELU, AttnBias: false, LogitScale: 6, TeacherWeight: 4,
			RefParams: 6.05e9, RefHidden: 4096, RefBlocks: 28, TaskTypes: "QA",
		},
		{
			Name: "llama2-7b-sim", Family: FamilyLlama,
			Vocab: 384, Hidden: 96, Heads: 8, FFN: 264, Blocks: 3, MaxSeq: 256,
			Activation: tensor.ActSiLU, AttnBias: false, LogitScale: 6, TeacherWeight: 4,
			RefParams: 6.74e9, RefHidden: 4096, RefBlocks: 32, TaskTypes: "QA/Math",
		},
		{
			Name: "vicuna-7b-sim", Family: FamilyLlama,
			Vocab: 384, Hidden: 96, Heads: 8, FFN: 264, Blocks: 3, MaxSeq: 256,
			Activation: tensor.ActSiLU, AttnBias: false, LogitScale: 6, TeacherWeight: 4,
			RefParams: 6.74e9, RefHidden: 4096, RefBlocks: 32, TaskTypes: "QA",
		},
		{
			Name: "qwen2-7b-sim", Family: FamilyLlama,
			Vocab: 384, Hidden: 96, Heads: 8, FFN: 288, Blocks: 3, MaxSeq: 256,
			Activation: tensor.ActSiLU, AttnBias: true, LogitScale: 6, TeacherWeight: 4,
			RefParams: 7.62e9, RefHidden: 3584, RefBlocks: 28, TaskTypes: "QA/Math",
		},
		{
			Name: "qwen2-1.5b-sim", Family: FamilyLlama,
			Vocab: 384, Hidden: 64, Heads: 8, FFN: 192, Blocks: 2, MaxSeq: 256,
			Activation: tensor.ActSiLU, AttnBias: true, LogitScale: 6, TeacherWeight: 4,
			RefParams: 1.54e9, RefHidden: 1536, RefBlocks: 28, TaskTypes: "QA",
		},
	}
}

// ConfigByName looks up a zoo config.
func ConfigByName(name string) (Config, error) {
	for _, c := range Zoo() {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("model: no zoo config named %q", name)
}
