package ft2_test

import (
	"math/rand"
	"slices"
	"testing"

	"ft2"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	if len(ft2.Models()) != 7 {
		t.Fatal("zoo must expose 7 models")
	}
	cfg, err := ft2.ModelByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 1, ft2.FP16)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ft2.LoadDataset("squad-sim", 2)
	if err != nil {
		t.Fatal(err)
	}
	p := ft2.Protect(m, ft2.DefaultOptions())
	defer p.Detach()
	out := p.Generate(ds.Inputs[0].Prompt, 20)
	if len(out) != 20 {
		t.Fatalf("generated %d tokens", len(out))
	}
	if p.Bounds().Len() == 0 {
		t.Error("FT2 captured no bounds")
	}
}

func TestPublicCriticality(t *testing.T) {
	cfg, err := ft2.ModelByName("llama2-7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	crit := ft2.CriticalLayers(cfg)
	if len(crit) != cfg.Blocks*4 {
		t.Errorf("critical layers = %d, want %d", len(crit), cfg.Blocks*4)
	}
	if ft2.IsCriticalLayer(cfg, crit[0].Kind) != true {
		t.Error("IsCriticalLayer inconsistent with CriticalLayers")
	}
}

func TestPublicCampaign(t *testing.T) {
	cfg, err := ft2.ModelByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := ft2.LoadDataset("squad-sim", 2)
	if err != nil {
		t.Fatal(err)
	}
	ds.GenTokens, ds.AnswerLo, ds.AnswerHi = 12, 6, 10
	res, err := ft2.RunCampaign(ft2.CampaignSpec{
		ModelCfg: cfg, ModelSeed: 1, DType: ft2.FP16,
		Fault: ft2.ExponentBit, Method: ft2.MethodFT2,
		FT2Opts: ft2.DefaultOptions(), Dataset: ds,
		Trials: 10, BaseSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SDC.Trials != 10 {
		t.Errorf("trials = %d", res.SDC.Trials)
	}
}

func TestPublicProfileBounds(t *testing.T) {
	cfg, err := ft2.ModelByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 1, ft2.FP16)
	if err != nil {
		t.Fatal(err)
	}
	store := ft2.ProfileBounds(m, [][]int{{4, 5, 6}}, 4)
	if store.Len() == 0 {
		t.Error("ProfileBounds recorded nothing")
	}
}

func TestPublicFaultInjection(t *testing.T) {
	cfg, err := ft2.ModelByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 1, ft2.FP16)
	if err != nil {
		t.Fatal(err)
	}
	plan := ft2.NewFaultPlan(cfg, 4, 8, ft2.FP16, ft2.ExponentBit, 2.0)
	rng := rand.New(rand.NewSource(5))
	site := plan.Sample(rng)
	inj := ft2.NewInjector(site, ft2.FP16)
	m.RegisterHook(inj.Hook())
	m.Generate([]int{4, 5, 6, 7}, 8)
	if !inj.Fired {
		t.Error("public injector never fired")
	}
}

// TestPublicSafeGeneration covers the error-returning boundary wrappers:
// every misuse that panics on the raw Model methods must come back as an
// error here, and the happy path must match Model.Generate bit for bit.
func TestPublicSafeGeneration(t *testing.T) {
	cfg, err := ft2.ModelByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ft2.NewModel(cfg, 3, ft2.FP16)
	if err != nil {
		t.Fatal(err)
	}

	// Misuse before any prefill: DecodeStep must error, not panic.
	if _, err := ft2.DecodeStep(m, 1); err == nil {
		t.Fatal("DecodeStep before Prefill returned nil error")
	}
	// Restore of an empty snapshot must error, not panic.
	if _, err := ft2.RestoreSnapshot(m, &ft2.Snapshot{}); err == nil {
		t.Fatal("RestoreSnapshot of empty snapshot returned nil error")
	}

	// Bad prompts.
	for _, bad := range [][]int{
		nil,
		{},
		{-1, 2},
		{cfg.Vocab, 2},
		make([]int, cfg.MaxSeq+1),
	} {
		if _, err := ft2.Prefill(m, bad); err == nil {
			t.Fatalf("Prefill(%v...) returned nil error", bad[:min(len(bad), 3)])
		}
	}

	// Happy path: prefill + decode via the wrappers matches Generate.
	prompt := []int{4, 5, 6, 7}
	const n = 6
	ref, err := ft2.NewModel(cfg, 3, ft2.FP16)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Generate(prompt, n)

	got := make([]int, 0, n)
	tok, err := ft2.Prefill(m, prompt)
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, tok)
	for len(got) < n {
		tok, err = ft2.DecodeStep(m, tok)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, tok)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wrapper generation diverged at %d: got %v want %v", i, got, want)
		}
	}

	// Bad decode token on a live generation.
	if _, err := ft2.DecodeStep(m, cfg.Vocab); err == nil {
		t.Fatal("DecodeStep with out-of-vocab token returned nil error")
	}

	// Snapshot round trip through the safe wrapper.
	var snap ft2.Snapshot
	m.Checkpoint(&snap)
	back, err := ft2.RestoreSnapshot(m, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if back != tok {
		t.Fatalf("RestoreSnapshot token = %d, want %d", back, tok)
	}

	// Architecture mismatch must error, not panic.
	other, err := ft2.ModelByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ft2.NewModel(other, 3, ft2.FP16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ft2.RestoreSnapshot(m2, &snap); err == nil {
		t.Fatal("RestoreSnapshot across architectures returned nil error")
	}

	// Sequence-budget exhaustion surfaces as an error, not a panic.
	small := cfg
	small.MaxSeq = 12 // just enough for NewModel's calibration pass
	tiny, err := ft2.NewModel(small, 3, ft2.FP16)
	if err != nil {
		t.Fatal(err)
	}
	tok, err = ft2.Prefill(tiny, prompt)
	if err != nil {
		t.Fatal(err)
	}
	exhausted := false
	for i := 0; i < small.MaxSeq+4; i++ {
		if tok, err = ft2.DecodeStep(tiny, tok); err != nil {
			exhausted = true
			break
		}
	}
	if !exhausted {
		t.Fatal("DecodeStep never reported sequence-budget exhaustion")
	}
}

// TestOpenEndedDecodeSizedByUse drives the open-ended public path — ft2.Prefill
// on a 32-token prompt, then 96 ft2.DecodeStep — on each family the engine
// benchmark rotates through. The state's slabs double as the decode passes
// them and stop at 128 rows, not MaxSeq; a second generation on the same model
// allocates nothing; and the tokens are GenerateInto's, whose state is
// reserved to the horizon up front.
func TestOpenEndedDecodeSizedByUse(t *testing.T) {
	const promptLen, steps = 32, 96
	for _, name := range []string{"opt-6.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		cfg, err := ft2.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ft2.NewModel(cfg, 42, ft2.FP16)
		if err != nil {
			t.Fatal(err)
		}
		prompt := make([]int, promptLen)
		for i := range prompt {
			prompt[i] = (7*i + 3) % cfg.Vocab
		}
		got := make([]int, 0, steps+1)
		generate := func() {
			tok, err := ft2.Prefill(m, prompt)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got[:0], tok)
			for range steps {
				if tok, err = ft2.DecodeStep(m, tok); err != nil {
					t.Fatal(err)
				}
				got = append(got, tok)
			}
		}
		generate()
		if _, pitch := m.State().KVOwn(); pitch > promptLen+steps {
			t.Fatalf("%s: %d rows held at pitch %d, want at most %d", name, promptLen+steps, pitch, promptLen+steps)
		}
		if avg := testing.AllocsPerRun(1, generate); avg != 0 {
			t.Fatalf("%s: a second generation allocates %.0f objects, want 0", name, avg)
		}
		if want := m.GenerateInto(nil, prompt, steps+1); !slices.Equal(got, want) {
			t.Fatalf("%s: open-ended tokens %v, GenerateInto %v", name, got, want)
		}
	}
}
