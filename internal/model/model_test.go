package model

import (
	"math"
	"testing"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

func smallCfg(f Family) Config {
	c := Config{
		Name: "test", Family: f,
		Vocab: 64, Hidden: 32, Heads: 4, FFN: 64, Blocks: 2, MaxSeq: 64,
		LogitScale: 4,
	}
	switch f {
	case FamilyOPT:
		c.Activation = tensor.ActReLU
		c.AttnBias = true
	case FamilyGPTJ:
		c.Activation = tensor.ActGELU
	case FamilyLlama:
		c.Activation = tensor.ActSiLU
	}
	return c
}

func TestZooConfigsValid(t *testing.T) {
	zoo := Zoo()
	if len(zoo) != 7 {
		t.Fatalf("zoo has %d models, want 7 (Table 2)", len(zoo))
	}
	for _, c := range zoo {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.RefParams <= 0 || c.TaskTypes == "" {
			t.Errorf("%s: missing Table 2 metadata", c.Name)
		}
	}
}

func TestConfigByName(t *testing.T) {
	c, err := ConfigByName("llama2-7b-sim")
	if err != nil || c.Family != FamilyLlama {
		t.Fatalf("ConfigByName failed: %v", err)
	}
	if _, err := ConfigByName("nope"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestConfigValidateRejectsBadShapes(t *testing.T) {
	c := smallCfg(FamilyOPT)
	c.Hidden = 30 // not divisible by 4 heads... 30/4 no
	if err := c.Validate(); err == nil {
		t.Error("non-divisible hidden/heads must fail validation")
	}
	c2 := smallCfg(FamilyLlama)
	c2.Hidden = 36 // headDim 9, odd — rotary needs even
	if err := c2.Validate(); err == nil {
		t.Error("odd head dim must fail validation for rotary families")
	}
	c3 := smallCfg(FamilyOPT)
	c3.Blocks = 0
	if err := c3.Validate(); err == nil {
		t.Error("zero blocks must fail validation")
	}
}

func TestLinearLayersEnumeration(t *testing.T) {
	c := smallCfg(FamilyOPT)
	layers := c.LinearLayers()
	if len(layers) != 2*6 {
		t.Fatalf("OPT family: %d layers, want 12", len(layers))
	}
	cl := smallCfg(FamilyLlama)
	if got := len(cl.LinearLayers()); got != 2*7 {
		t.Fatalf("Llama family: %d layers, want 14", got)
	}
	if layers[0] != (LayerRef{0, KProj}) || layers[11] != (LayerRef{1, FC2}) {
		t.Error("layer enumeration order wrong")
	}
}

func TestInOutDims(t *testing.T) {
	c := smallCfg(FamilyLlama)
	if c.OutDim(GateProj) != c.FFN || c.InDim(GateProj) != c.Hidden {
		t.Error("GateProj dims wrong")
	}
	if c.OutDim(DownProj) != c.Hidden || c.InDim(DownProj) != c.FFN {
		t.Error("DownProj dims wrong")
	}
	if c.OutDim(KProj) != c.Hidden {
		t.Error("KProj dims wrong")
	}
}

func TestParamCountMatchesStorage(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		c := smallCfg(f)
		m := MustNew(c, 1, numerics.FP16)
		// Count actual stored parameters.
		n := len(m.embed.Data)
		if m.posEmb != nil {
			n += len(m.posEmb.Data)
		}
		for _, blk := range m.blocks {
			for _, l := range []linear{blk.kProj, blk.qProj, blk.vProj, blk.outProj, blk.fc1, blk.fc2, blk.gateProj, blk.upProj, blk.downProj} {
				if l.w != nil {
					n += len(l.w.Data) + len(l.b)
				}
			}
			n += len(blk.ln1.gamma) + len(blk.ln1.beta) + len(blk.ln2.gamma) + len(blk.ln2.beta)
		}
		n += len(m.lnF.gamma) + len(m.lnF.beta)
		if got := c.ParamCount(); got != n {
			t.Errorf("%v: ParamCount()=%d, stored=%d", f, got, n)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		cfg := smallCfg(f)
		m1 := MustNew(cfg, 7, numerics.FP16)
		m2 := MustNew(cfg, 7, numerics.FP16)
		prompt := []int{1, 5, 9, 13, 2}
		a := m1.Generate(prompt, 12)
		b := m2.Generate(prompt, 12)
		if len(a) != 12 {
			t.Fatalf("%v: generated %d tokens, want 12", f, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: nondeterministic generation at %d: %v vs %v", f, i, a, b)
			}
		}
		// Re-generating on the same model must reset state and agree.
		c := m1.Generate(prompt, 12)
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("%v: state leaked across Generate calls", f)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	a := MustNew(cfg, 1, numerics.FP16).Generate([]int{1, 2, 3}, 10)
	b := MustNew(cfg, 2, numerics.FP16).Generate([]int{1, 2, 3}, 10)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical generations (suspicious)")
	}
}

func TestGenerateTokensInVocab(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 3, numerics.FP16)
	for _, tok := range m.Generate([]int{1, 2, 3, 4}, 20) {
		if tok < 0 || tok >= cfg.Vocab {
			t.Fatalf("generated token %d outside vocab", tok)
		}
	}
}

func TestGeneratePanicsOnBadInput(t *testing.T) {
	m := MustNew(smallCfg(FamilyOPT), 1, numerics.FP16)
	for name, fn := range map[string]func(){
		"empty prompt":   func() { m.Generate(nil, 4) },
		"overlong":       func() { m.Generate([]int{1}, 1000) },
		"bad token":      func() { m.Generate([]int{9999}, 4) },
		"negative token": func() { m.Generate([]int{-1}, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// The KV-cache incremental path must agree with a full re-forward: generate
// one token at a time and check that prefilling the extended prompt yields
// the same next token.
func TestKVCacheConsistency(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		cfg := smallCfg(f)
		m := MustNew(cfg, 11, numerics.FP16)
		prompt := []int{4, 8, 15, 16}
		gen := m.Generate(prompt, 5)

		// Recompute each step by prefilling prompt+prefix from scratch.
		for i := 1; i < 5; i++ {
			extended := append(append([]int(nil), prompt...), gen[:i]...)
			got := m.Generate(extended, 1)[0]
			if got != gen[i] {
				t.Errorf("%v: KV-cache path diverges at step %d: cached=%d fresh=%d", f, i, gen[i], got)
			}
		}
	}
}

func TestHooksObserveEveryLinearLayer(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		cfg := smallCfg(f)
		m := MustNew(cfg, 5, numerics.FP16)
		seen := make(map[LayerRef]int)
		steps := make(map[int]bool)
		actSites := 0
		m.RegisterHook(func(ctx HookCtx, out *tensor.Tensor) {
			steps[ctx.Step] = true
			if ctx.Site == SiteActivationOut {
				actSites++
				if ctx.Layer.Kind != FC1 && ctx.Layer.Kind != GateProj {
					t.Errorf("activation site fired on %v", ctx.Layer)
				}
				return
			}
			seen[ctx.Layer]++
			if wantCols := cfg.OutDim(ctx.Layer.Kind); out.Cols != wantCols {
				t.Errorf("%v: hook tensor has %d cols, want %d", ctx.Layer, out.Cols, wantCols)
			}
		})
		nGen := 4
		m.Generate([]int{1, 2, 3}, nGen)
		for _, ref := range cfg.LinearLayers() {
			if seen[ref] != nGen {
				t.Errorf("%v/%v: hook fired %d times, want %d", f, ref, seen[ref], nGen)
			}
		}
		for s := 0; s < nGen; s++ {
			if !steps[s] {
				t.Errorf("%v: no hook fired at step %d", f, s)
			}
		}
		if wantAct := cfg.Blocks * nGen; actSites != wantAct {
			t.Errorf("%v: activation site fired %d times, want %d", f, actSites, wantAct)
		}
	}
}

func TestSiteString(t *testing.T) {
	if SiteLinearOut.String() != "linear_out" || SiteActivationOut.String() != "act_out" {
		t.Error("Site strings wrong")
	}
}

func TestHookMutationChangesOutput(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 5, numerics.FP16)
	prompt := []int{1, 2, 3}
	clean := m.Generate(prompt, 8)

	h := m.RegisterHook(func(ctx HookCtx, out *tensor.Tensor) {
		if ctx.Layer == (LayerRef{0, OutProj}) && ctx.Step == 0 && ctx.Site == SiteLinearOut {
			// Corrupt the last row (the position that produces the first
			// token) so the fault is on the readout path regardless of how
			// attention mixes earlier positions.
			for r := 0; r < out.Rows; r++ {
				out.Data[r*out.Cols] = 3.0e4
			}
		}
	})
	corrupted := m.Generate(prompt, 8)
	m.RemoveHook(h)
	restored := m.Generate(prompt, 8)

	same := true
	for i := range clean {
		if clean[i] != corrupted[i] {
			same = false
		}
		if clean[i] != restored[i] {
			t.Fatal("RemoveHook did not restore clean behaviour")
		}
	}
	if same {
		t.Error("a huge corruption in OUT_PROJ should change the generation")
	}
}

func TestRemoveAndClearHooks(t *testing.T) {
	m := MustNew(smallCfg(FamilyOPT), 1, numerics.FP16)
	h1 := m.RegisterHook(func(HookCtx, *tensor.Tensor) {})
	m.RegisterHook(func(HookCtx, *tensor.Tensor) {})
	if m.HookCount() != 2 {
		t.Fatal("HookCount wrong")
	}
	m.RemoveHook(h1)
	if m.HookCount() != 1 {
		t.Fatal("RemoveHook failed")
	}
	m.RemoveHook(HookHandle(999)) // unknown: no-op
	if m.HookCount() != 1 {
		t.Fatal("unknown handle must be ignored")
	}
	m.ClearHooks()
	if m.HookCount() != 0 {
		t.Fatal("ClearHooks failed")
	}
}

// The FP16 precision gate must make every hooked activation exactly
// binary16-representable.
func TestActivationsAreF16Representable(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 9, numerics.FP16)
	bad := 0
	m.RegisterHook(func(ctx HookCtx, out *tensor.Tensor) {
		for _, v := range out.Data {
			if numerics.RoundF16(v) != v && !math.IsNaN(float64(v)) {
				bad++
			}
		}
	})
	m.Generate([]int{1, 2, 3, 4, 5}, 6)
	if bad > 0 {
		t.Errorf("%d activation values were not binary16-representable", bad)
	}
}

// FP32 mode should produce (slightly) different traces from FP16 but still
// be deterministic.
func TestFP32Mode(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	a := MustNew(cfg, 7, numerics.FP32).Generate([]int{1, 2, 3}, 10)
	b := MustNew(cfg, 7, numerics.FP32).Generate([]int{1, 2, 3}, 10)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("FP32 generation nondeterministic")
		}
	}
}

func TestStepRows(t *testing.T) {
	if StepRows(17, 0) != 17 {
		t.Error("prefill step must process the whole prompt")
	}
	if StepRows(17, 3) != 1 {
		t.Error("decode steps process one row")
	}
}

func TestLayerKindStrings(t *testing.T) {
	want := map[LayerKind]string{
		KProj: "K_PROJ", QProj: "Q_PROJ", VProj: "V_PROJ", OutProj: "OUT_PROJ",
		FC1: "FC1", FC2: "FC2", GateProj: "GATE_PROJ", UpProj: "UP_PROJ", DownProj: "DOWN_PROJ",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
	if FamilyOPT.String() != "opt" || FamilyGPTJ.String() != "gptj" || FamilyLlama.String() != "llama" {
		t.Error("Family strings wrong")
	}
}

func BenchmarkGeneratePrefill(b *testing.B) {
	cfg, _ := ConfigByName("opt-6.7b-sim")
	m := MustNew(cfg, 1, numerics.FP16)
	prompt := make([]int, 32)
	for i := range prompt {
		prompt[i] = 4 + i%60
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Generate(prompt, 1)
	}
}

func BenchmarkGenerate16Tokens(b *testing.B) {
	cfg, _ := ConfigByName("llama2-7b-sim")
	m := MustNew(cfg, 1, numerics.FP16)
	prompt := make([]int, 16)
	for i := range prompt {
		prompt[i] = 4 + i%60
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Generate(prompt, 16)
	}
}
