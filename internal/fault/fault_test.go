package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/prefixcache"
	"ft2/internal/tensor"
)

func testCfg(t *testing.T) model.Config {
	t.Helper()
	cfg, err := model.ConfigByName("opt-2.7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestPlanTotalElements(t *testing.T) {
	cfg := testCfg(t)
	p := NewPlan(cfg, 10, 5, numerics.FP16, numerics.SingleBit, 1)
	perToken := 0
	for _, ref := range cfg.LinearLayers() {
		perToken += cfg.OutDim(ref.Kind)
	}
	want := int64(10+5-1) * int64(perToken)
	if got := p.TotalElements(); got != want {
		t.Errorf("TotalElements = %d, want %d", got, want)
	}
}

func TestPlanPanicsOnDegenerate(t *testing.T) {
	cfg := testCfg(t)
	for _, bad := range [][2]int{{0, 5}, {5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPlan(%v) must panic", bad)
				}
			}()
			NewPlan(cfg, bad[0], bad[1], numerics.FP16, numerics.SingleBit, 1)
		}()
	}
}

func TestSampleSitesValid(t *testing.T) {
	cfg := testCfg(t)
	promptLen, gen := 8, 6
	p := NewPlan(cfg, promptLen, gen, numerics.FP16, numerics.ExponentBit, 2.5)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		s := p.Sample(rng)
		if s.Step < 0 || s.Step >= gen {
			t.Fatalf("step %d out of range", s.Step)
		}
		rows := model.StepRows(promptLen, s.Step)
		maxElem := rows * cfg.OutDim(s.Layer.Kind)
		if s.Elem < 0 || s.Elem >= maxElem {
			t.Fatalf("elem %d out of range %d at %v", s.Elem, maxElem, s)
		}
		if s.Layer.Block < 0 || s.Layer.Block >= cfg.Blocks {
			t.Fatalf("block out of range: %v", s)
		}
		if len(s.Bits) != 1 || s.Bits[0] < 10 || s.Bits[0] > 14 {
			t.Fatalf("EXP fault must flip one FP16 exponent bit, got %v", s.Bits)
		}
	}
}

func TestSampleCoversAllLayersAndSteps(t *testing.T) {
	cfg := testCfg(t)
	p := NewPlan(cfg, 6, 4, numerics.FP16, numerics.SingleBit, 2)
	rng := rand.New(rand.NewSource(2))
	layers := make(map[model.LayerRef]bool)
	steps := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		s := p.Sample(rng)
		layers[s.Layer] = true
		steps[s.Step] = true
	}
	if len(layers) != len(cfg.LinearLayers()) {
		t.Errorf("sampling covered %d layers, want %d", len(layers), len(cfg.LinearLayers()))
	}
	for s := 0; s < 4; s++ {
		if !steps[s] {
			t.Errorf("step %d never sampled", s)
		}
	}
}

// The prefill step must receive samples in proportion to its element count
// (promptLen rows vs 1 row per decode step).
func TestSampleStepWeighting(t *testing.T) {
	cfg := testCfg(t)
	promptLen, gen := 20, 5
	p := NewPlan(cfg, promptLen, gen, numerics.FP16, numerics.SingleBit, float64(promptLen))
	rng := rand.New(rand.NewSource(3))
	n := 20000
	step0 := 0
	for i := 0; i < n; i++ {
		if p.Sample(rng).Step == 0 {
			step0++
		}
	}
	wantFrac := float64(promptLen) / float64(promptLen+gen-1)
	gotFrac := float64(step0) / float64(n)
	if diff := gotFrac - wantFrac; diff > 0.02 || diff < -0.02 {
		t.Errorf("prefill sampling fraction %g, want ~%g", gotFrac, wantFrac)
	}
}

func TestSampleFirstTokenRestricted(t *testing.T) {
	cfg := testCfg(t)
	p := NewPlan(cfg, 8, 6, numerics.FP16, numerics.SingleBit, 1)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if s := p.SampleFirstToken(rng); s.Step != 0 {
			t.Fatalf("SampleFirstToken returned step %d", s.Step)
		}
	}
}

func TestSampleFollowingRestricted(t *testing.T) {
	cfg := testCfg(t)
	p := NewPlan(cfg, 8, 6, numerics.FP16, numerics.SingleBit, 1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		if s := p.SampleFollowing(rng); s.Step == 0 {
			t.Fatal("SampleFollowing returned step 0")
		}
	}
	p1 := NewPlan(cfg, 8, 1, numerics.FP16, numerics.SingleBit, 1)
	defer func() {
		if recover() == nil {
			t.Error("SampleFollowing with one token must panic")
		}
	}()
	p1.SampleFollowing(rng)
}

func TestInjectorFiresOnce(t *testing.T) {
	cfg := testCfg(t)
	m := model.MustNew(cfg, 7, numerics.FP16)
	site := Site{Step: 1, Layer: model.LayerRef{Block: 0, Kind: model.FC2}, Elem: 3, Bits: []int{14}}
	inj := NewInjector(site, numerics.FP16)
	m.RegisterHook(inj.Hook())
	m.Generate([]int{4, 5, 6}, 4)
	if !inj.Fired {
		t.Fatal("injector never fired")
	}
	want := numerics.CorruptValue(inj.Original, numerics.FP16, []int{14})
	bothNaN := math.IsNaN(float64(want)) && math.IsNaN(float64(inj.Corrupted))
	if inj.Corrupted != want && !bothNaN {
		t.Errorf("corrupted=%g, want %g", inj.Corrupted, want)
	}
	inj.Reset()
	if inj.Fired || inj.Original != 0 {
		t.Error("Reset must clear state")
	}
}

func TestInjectorChangesActivation(t *testing.T) {
	cfg := testCfg(t)
	m := model.MustNew(cfg, 7, numerics.FP16)
	site := Site{Step: 0, Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Elem: 10, Bits: []int{14}}
	inj := NewInjector(site, numerics.FP16)

	var observed float32
	sawCorruption := false
	m.RegisterHook(inj.Hook())
	m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Layer == site.Layer && ctx.Step == 0 && ctx.Site == model.SiteLinearOut {
			observed = out.Data[site.Elem]
			sawCorruption = true
		}
	})
	m.Generate([]int{4, 5, 6, 7}, 2)
	if !sawCorruption {
		t.Fatal("observer hook never fired")
	}
	bothNaN := math.IsNaN(float64(observed)) && math.IsNaN(float64(inj.Corrupted))
	if observed != inj.Corrupted && !bothNaN {
		t.Errorf("downstream hook saw %g, injector wrote %g", observed, inj.Corrupted)
	}
}

func TestInjectorPanicsOnBadElem(t *testing.T) {
	cfg := testCfg(t)
	m := model.MustNew(cfg, 7, numerics.FP16)
	site := Site{Step: 1, Layer: model.LayerRef{Block: 0, Kind: model.FC2}, Elem: 10_000_000, Bits: []int{0}}
	m.RegisterHook(NewInjector(site, numerics.FP16).Hook())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range element must panic")
		}
	}()
	m.Generate([]int{4, 5, 6}, 4)
}

func TestSiteString(t *testing.T) {
	s := Site{Step: 2, Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Elem: 7, Bits: []int{3, 9}}
	if s.String() == "" {
		t.Error("Site.String empty")
	}
}

func TestSamplingDeterministicWithSeed(t *testing.T) {
	cfg := testCfg(t)
	p := NewPlan(cfg, 8, 6, numerics.FP16, numerics.DoubleBit, 3)
	a := rand.New(rand.NewSource(99))
	b := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		sa, sb := p.Sample(a), p.Sample(b)
		if sa.Step != sb.Step || sa.Layer != sb.Layer || sa.Elem != sb.Elem {
			t.Fatal("sampling not deterministic under fixed seed")
		}
	}
}

// Time-weighted sampling: with prefill weight w, P(step 0) = w/(w+gen-1),
// matching the first-token execution-time fraction of Fig. 10.
func TestSampleTimeWeightedPrefill(t *testing.T) {
	cfg := testCfg(t)
	p := NewPlan(cfg, 20, 61, numerics.FP16, numerics.SingleBit, 3.2)
	wantP := 3.2 / (3.2 + 60)
	if got := p.FirstTokenProbability(); got != wantP {
		t.Fatalf("FirstTokenProbability = %g, want %g", got, wantP)
	}
	rng := rand.New(rand.NewSource(6))
	n := 30000
	step0 := 0
	for i := 0; i < n; i++ {
		if p.Sample(rng).Step == 0 {
			step0++
		}
	}
	got := float64(step0) / float64(n)
	if diff := got - wantP; diff > 0.01 || diff < -0.01 {
		t.Errorf("prefill sampling fraction %g, want ~%g", got, wantP)
	}
}

func TestNewPlanDefaultsWeight(t *testing.T) {
	cfg := testCfg(t)
	p := NewPlan(cfg, 8, 6, numerics.FP16, numerics.SingleBit, 0)
	if p.PrefillWeight != 1 {
		t.Errorf("default prefill weight = %g, want 1", p.PrefillWeight)
	}
}

// Within a step, the corrupted layer must be chosen in proportion to its
// output width (uniform over neurons).
func TestSampleLayerProportionalToWidth(t *testing.T) {
	cfg, err := model.ConfigByName("llama2-7b-sim")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlan(cfg, 8, 4, numerics.FP16, numerics.SingleBit, 1)
	rng := rand.New(rand.NewSource(8))
	counts := make(map[model.LayerKind]int)
	n := 30000
	for i := 0; i < n; i++ {
		counts[p.SampleFollowing(rng).Layer.Kind]++
	}
	perToken := 0
	for _, ref := range cfg.LinearLayers() {
		perToken += cfg.OutDim(ref.Kind)
	}
	for _, kind := range cfg.Family.LayerKinds() {
		want := float64(cfg.OutDim(kind)*cfg.Blocks) / float64(perToken)
		got := float64(counts[kind]) / float64(n)
		if diff := got - want; diff > 0.015 || diff < -0.015 {
			t.Errorf("%v sampled at %.3f, want %.3f", kind, got, want)
		}
	}
}

func TestSiteStringTargets(t *testing.T) {
	base := Site{Step: 3, Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Elem: 7, Bits: []int{14}}
	act := base
	if s := act.String(); s != "step=3 block1.V_PROJ elem=7 bits=[14]" {
		t.Errorf("activation form changed: %q", s)
	}
	w := base
	w.Target = TargetWeight
	if s := w.String(); s != "weight step=3 block1.V_PROJ elem=7 bits=[14]" {
		t.Errorf("weight form: %q", s)
	}
	kv := base
	kv.Target = TargetKVCache
	if s := kv.String(); s != "kv step=3 block1.V_PROJ elem=7 bits=[14]" {
		t.Errorf("kv form: %q", s)
	}
	for want, tgt := range map[string]Target{
		"activation": TargetActivation, "weight": TargetWeight, "kv": TargetKVCache,
	} {
		if tgt.String() != want {
			t.Errorf("Target(%d).String() = %q, want %q", tgt, tgt.String(), want)
		}
	}
}

// A mixed plan must route samples per the mix, keep every site in range for
// its target kind, and stay deterministic under a fixed seed.
func TestSampleTargetMix(t *testing.T) {
	cfg := testCfg(t)
	promptLen, gen := 8, 6
	p := NewPlan(cfg, promptLen, gen, numerics.FP16, numerics.SingleBit, 1)
	p.Mix = TargetMix{Weight: 0.3, KV: 0.2}
	rng := rand.New(rand.NewSource(11))
	counts := map[Target]int{}
	n := 8000
	for i := 0; i < n; i++ {
		s := p.Sample(rng)
		counts[s.Target]++
		switch s.Target {
		case TargetWeight:
			w := cfg.OutDim(s.Layer.Kind) * cfg.InDim(s.Layer.Kind)
			if s.Elem < 0 || s.Elem >= w {
				t.Fatalf("weight elem %d out of range %d at %v", s.Elem, w, s)
			}
			if s.Step < 0 || s.Step >= gen {
				t.Fatalf("weight step out of range: %v", s)
			}
		case TargetKVCache:
			if s.Step < 1 || s.Step >= gen {
				t.Fatalf("kv step out of range: %v", s)
			}
			if s.Layer.Kind != model.KProj && s.Layer.Kind != model.VProj {
				t.Fatalf("kv must target K or V slab: %v", s)
			}
			resident := promptLen + s.Step - 1
			if pos := s.Elem / cfg.Hidden; pos < 0 || pos >= resident {
				t.Fatalf("kv position %d beyond %d resident rows: %v", pos, resident, s)
			}
		default:
			rows := model.StepRows(promptLen, s.Step)
			if s.Elem < 0 || s.Elem >= rows*cfg.OutDim(s.Layer.Kind) {
				t.Fatalf("activation elem out of range: %v", s)
			}
		}
	}
	for tgt, want := range map[Target]float64{TargetWeight: 0.3, TargetKVCache: 0.2, TargetActivation: 0.5} {
		got := float64(counts[tgt]) / float64(n)
		if got < want-0.03 || got > want+0.03 {
			t.Errorf("target %v fraction %.3f, want ~%.2f", tgt, got, want)
		}
	}
	// Determinism: the same seed replays the same site sequence.
	a := rand.New(rand.NewSource(42))
	b := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		sa, sb := p.Sample(a), p.Sample(b)
		if sa.String() != sb.String() {
			t.Fatalf("sampling not deterministic: %v vs %v", sa, sb)
		}
	}
}

func TestSampleKVNeedsDecodeSteps(t *testing.T) {
	cfg := testCfg(t)
	p := NewPlan(cfg, 8, 1, numerics.FP16, numerics.SingleBit, 1)
	defer func() {
		if recover() == nil {
			t.Error("SampleKV with one token must panic")
		}
	}()
	p.SampleKV(rand.New(rand.NewSource(1)))
}

func TestInjectorWeightFireAndRevert(t *testing.T) {
	cfg := testCfg(t)
	m := model.MustNew(cfg, 7, numerics.FP16)
	ref := model.LayerRef{Block: 0, Kind: model.VProj}
	site := Site{Target: TargetWeight, Step: 1, Layer: ref, Elem: 5, Bits: []int{14}}
	inj := NewInjector(site, numerics.FP16)
	inj.M = m
	clean := m.Weight(ref).Data[site.Elem]
	m.RegisterHook(inj.Hook())
	m.Generate([]int{4, 5, 6}, 3)
	if !inj.Fired {
		t.Fatal("weight injector never fired")
	}
	if inj.Original != clean {
		t.Errorf("recorded original %g, weight was %g", inj.Original, clean)
	}
	if got := m.Weight(ref).Data[site.Elem]; got != inj.Corrupted {
		t.Errorf("weight holds %g after run, want corrupted %g", got, inj.Corrupted)
	}
	inj.Revert()
	if got := m.Weight(ref).Data[site.Elem]; got != clean {
		t.Errorf("Revert left %g, want %g", got, clean)
	}
	inj.Revert() // idempotent
	if got := m.Weight(ref).Data[site.Elem]; got != clean {
		t.Errorf("second Revert corrupted the weight: %g", got)
	}
}

// A persistent weight flip must change the weight checksum and be restored
// exactly by Revert — the scrub contract the serving layer relies on.
func TestInjectorWeightChecksumRoundTrip(t *testing.T) {
	cfg := testCfg(t)
	m := model.MustNew(cfg, 7, numerics.FP16)
	before := m.WeightChecksum()
	site := Site{Target: TargetWeight, Step: 0, Layer: model.LayerRef{Block: 1, Kind: model.FC1}, Elem: 9, Bits: []int{14}}
	inj := NewInjector(site, numerics.FP16)
	inj.M = m
	m.RegisterHook(inj.Hook())
	m.Generate([]int{4, 5, 6}, 2)
	m.ClearHooks()
	if !inj.Fired {
		t.Fatal("never fired")
	}
	if m.WeightChecksum() == before {
		t.Error("checksum unchanged by weight corruption")
	}
	inj.Revert()
	if m.WeightChecksum() != before {
		t.Error("checksum not restored by Revert")
	}
}

// On a model with f16 weights a weight fault fired and then reverted must
// leave nothing behind: the next generation is the fault-free one again.
func TestInjectorWeightRevertOnF16Weights(t *testing.T) {
	m := model.MustNew(testCfg(t), 7, numerics.FP16)
	m.EnableF16Weights()
	prompt := []int{4, 5, 6}
	clean := m.Generate(prompt, 12)
	site := Site{Target: TargetWeight, Step: 0, Layer: model.LayerRef{Block: 1, Kind: model.FC1}, Elem: 9, Bits: []int{14}}
	inj := NewInjector(site, numerics.FP16)
	inj.M = m
	h := m.RegisterHook(inj.Hook())
	faulted := m.Generate(prompt, 12)
	m.RemoveHook(h)
	if !inj.Fired {
		t.Fatal("never fired")
	}
	if slices.Equal(faulted, clean) {
		t.Fatal("the weight fault did not change the generation; pick a site that does")
	}
	inj.Revert()
	if got := m.Generate(prompt, 12); !slices.Equal(got, clean) {
		t.Errorf("after Revert: %v, fault-free %v", got, clean)
	}
}

func TestInjectorKVFires(t *testing.T) {
	cfg := testCfg(t)
	m := model.MustNew(cfg, 7, numerics.FP16)
	promptLen := 4
	pos, col := 2, cfg.Hidden-1
	site := Site{
		Target: TargetKVCache, Step: 2,
		Layer: model.LayerRef{Block: 1, Kind: model.VProj},
		Elem:  pos*cfg.Hidden + col, Bits: []int{14},
	}
	inj := NewInjector(site, numerics.FP16)
	m.RegisterHook(inj.Hook())
	m.Generate([]int{4, 5, 6, 7}, 4)
	if !inj.Fired {
		t.Fatal("kv injector never fired")
	}
	_, v, rows, pitch := m.State().KVSlabs(1)
	if rows != promptLen+4-1 {
		t.Fatalf("unexpected resident rows %d", rows)
	}
	hd := cfg.HeadDim()
	off := (col/hd*pitch+pos)*hd + col%hd
	bothNaN := math.IsNaN(float64(v[off])) && math.IsNaN(float64(inj.Corrupted))
	if v[off] != inj.Corrupted && !bothNaN {
		t.Errorf("slab holds %g, injector wrote %g", v[off], inj.Corrupted)
	}
}

// A KV flip on a row a session borrows from a prefix-cache entry lands in a
// private copy of the borrowed rows: the session reads the flipped value, the
// entry's wire bytes do not change, and a second session borrowing the same
// entry alongside decodes the oracle's tokens. The copy keeps the state's
// reach but never exceeds MaxSeq, even for a state already reserved to it
// (a recycled one, say).
func TestInjectorKVCopiesBorrowedRows(t *testing.T) {
	cfg := testCfg(t)
	m := model.MustNew(cfg, 7, numerics.FP16)
	prompt := []int{4, 5, 6, 7, 8, 9}
	const n = 6
	oracle := slices.Clone(m.Generate(prompt, n))
	entry := &model.Snapshot{}
	m.Prefill(prompt)
	m.Checkpoint(entry)
	cache := prefixcache.New(1 << 30)
	if !cache.Insert(prompt, entry, nil, true) {
		t.Fatal("the entry was not admitted")
	}
	entryWire := model.AppendSnapshot(nil, entry)

	// Two sessions borrow every prompt row but the last.
	states, toks := make([]*model.DecodeState, 2), make([]int, 2)
	for i := range states {
		ref := cache.Lookup(prompt, false)
		if ref == nil || ref.Rows() != len(prompt)-1 {
			t.Fatalf("session %d missed the entry", i)
		}
		defer ref.Release()
		states[i] = m.NewDecodeState()
		if i == 0 {
			states[i].Reserve(cfg.MaxSeq)
		}
		states[i].BeginPrefill(len(prompt))
		states[i].ResumePrefix(ref.Snapshot())
		toks[i] = m.ForwardBatch([]model.BatchItem{{State: states[i], Prefill: prompt[ref.Rows():]}}, nil)[0]
	}

	pos, col := 1, cfg.Hidden-1
	inj := NewInjector(Site{
		Target: TargetKVCache, Step: 1,
		Layer: model.LayerRef{Block: 0, Kind: model.KProj},
		Elem:  pos*cfg.Hidden + col, Bits: []int{14},
	}, numerics.FP16)
	inj.Fire(states[0])
	k, _, _, pitch := states[0].KVSlabs(0)
	if pitch != cfg.MaxSeq {
		t.Fatalf("the copied slabs hold %d positions per head, want MaxSeq %d", pitch, cfg.MaxSeq)
	}
	hd := cfg.HeadDim()
	if got := k[(col/hd*pitch+pos)*hd+col%hd]; math.Float32bits(got) != math.Float32bits(inj.Corrupted) {
		t.Fatalf("the faulted session reads %g at the flipped element, the injector wrote %g", got, inj.Corrupted)
	}

	got := []int{toks[1]}
	for len(got) < n {
		for i, st := range states {
			toks[i] = m.ForwardBatch([]model.BatchItem{{State: st, Tok: toks[i]}}, nil)[0]
		}
		got = append(got, toks[1])
	}
	if !slices.Equal(got, oracle) {
		t.Fatalf("the session borrowing beside the faulted one decoded %v, oracle %v", got, oracle)
	}
	if !slices.Equal(model.AppendSnapshot(nil, entry), entryWire) {
		t.Fatal("a KV fault on a borrowed row changed the cache entry's bytes")
	}
}

// A KV flip changes the session's continuation but not the weights — and a
// fresh generation (fresh state) is clean again.
func TestInjectorKVTransient(t *testing.T) {
	cfg := testCfg(t)
	m := model.MustNew(cfg, 7, numerics.FP16)
	prompt := []int{4, 5, 6, 7}
	golden := append([]int(nil), m.Generate(prompt, 6)...)
	before := m.WeightChecksum()
	site := Site{
		Target: TargetKVCache, Step: 1,
		Layer: model.LayerRef{Block: 0, Kind: model.KProj},
		Elem:  1*cfg.Hidden + 3, Bits: []int{14},
	}
	inj := NewInjector(site, numerics.FP16)
	m.RegisterHook(inj.Hook())
	m.Generate(prompt, 6)
	m.ClearHooks()
	if !inj.Fired {
		t.Fatal("never fired")
	}
	if m.WeightChecksum() != before {
		t.Error("kv fault must not touch weights")
	}
	again := m.Generate(prompt, 6)
	if len(again) != len(golden) {
		t.Fatalf("clean rerun length %d vs %d", len(again), len(golden))
	}
	for i := range golden {
		if golden[i] != again[i] {
			t.Fatalf("clean rerun diverged at %d after kv fault", i)
		}
	}
}

// The campaign's fault stream is pinned: every sampler's sequence of sites
// for a fixed seed hashes to a recorded digest, so a refactor of the draws
// cannot shift which sites a seeded campaign injects (and with them every
// published SDC count). Two families (OPT's FC1/FC2 and Llama's gated MLP),
// the zero mix and a weight/KV mix. A changed digest means the stream moved;
// record a new one only for a deliberate change of the sampling model.
func TestPlanStreamPinned(t *testing.T) {
	const want = "e294f26ec0bf27ecfc145e82fe7b87159c6ffcd705f724c37f259618da19b05f"
	h := sha256.New()
	for _, name := range []string{"opt-2.7b-sim", "llama2-7b-sim"} {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mix := range []TargetMix{{}, {Weight: 0.3, KV: 0.2}} {
			p := NewPlan(cfg, 12, 9, numerics.FP16, numerics.DoubleBit, 2.5)
			p.Mix = mix
			samplers := []func(*rand.Rand) Site{p.Sample, p.SampleFirstToken, p.SampleFollowing, p.SampleKV, p.SampleWeight}
			for i, sample := range samplers {
				rng := rand.New(rand.NewSource(int64(17 + i)))
				for n := 0; n < 2000; n++ {
					fmt.Fprintln(h, sample(rng))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("fault stream digest %s, want %s", got, want)
	}
}

// A mix is a probability split: finite, non-negative shares summing to at
// most 1. Route follows the shares in order weight, KV, activation.
func TestTargetMixValidateAndRoute(t *testing.T) {
	for _, ok := range []TargetMix{{}, {Weight: 0.3, KV: 0.2}, {Weight: 1}, {KV: 1}, {Weight: 0.5, KV: 0.5}} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, bad := range []TargetMix{{Weight: 0.9, KV: 0.9}, {Weight: -0.1}, {KV: -0.1, Weight: 0.5},
		{Weight: nan}, {KV: nan}, {Weight: inf}, {Weight: inf, KV: math.Inf(-1)}} {
		if bad.Validate() == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
	m := TargetMix{Weight: 0.3, KV: 0.2}
	for u, want := range map[float64]Target{0: TargetWeight, 0.29: TargetWeight, 0.3: TargetKVCache,
		0.49: TargetKVCache, 0.5: TargetActivation, 0.99: TargetActivation} {
		if got := m.Route(u); got != want {
			t.Errorf("Route(%g) = %v, want %v", u, got, want)
		}
	}
}
