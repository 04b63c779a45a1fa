package model_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ft2/internal/arch"
	"ft2/internal/core"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// goldenKernelProbe digests one fixed MatMulT. The digests below were
// recorded on the FMA dot tier; a host whose row kernel sums in another
// order (no FMA, non-amd64) produces a different probe and skips.
const goldenKernelProbe = 0x24155616b9be16cb

func kernelProbe() uint64 {
	x, w := tensor.New(1, 64), tensor.New(8, 64)
	for i := range x.Data {
		x.Data[i] = float32(math.Sin(float64(i + 1)))
	}
	for i := range w.Data {
		w.Data[i] = float32(math.Cos(float64(3*i + 1)))
	}
	h := fnv.New64a()
	var b [4]byte
	for _, v := range tensor.MatMulTInto(tensor.New(1, 8), x, w).Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSerialGoldenDigest pins Prefill/DecodeStep to numbers recorded from
// the serial forward pass that existed before ForwardBatch became the only
// forward pass (commit 699db1d): FNV-64a over the emitted tokens, the FT2
// correction counters and the bit patterns of the final step's logits. The
// independent reference survives as these frozen numbers.
func TestSerialGoldenDigest(t *testing.T) {
	if got := kernelProbe(); got != goldenKernelProbe {
		t.Skipf("kernel probe %#x != recorded %#x: this host's dot kernel sums in a different order than the recording host's", got, uint64(goldenKernelProbe))
	}
	const gen = 12
	prompt := []int{5, 17, 44, 9, 120, 63, 7, 200, 31}
	type mode int
	const (
		bare mode = iota
		protected
		faulted
	)
	cases := []struct {
		model string
		f16   bool
		mode  mode
		want  uint64
	}{
		{"opt-6.7b-sim", false, bare, 0x3c2dd0df43333d27},
		{"opt-6.7b-sim", false, protected, 0x0f8763a0a52d6a87},
		{"opt-6.7b-sim", false, faulted, 0xcaf87e8fd8827b53},
		{"opt-6.7b-sim", true, bare, 0xa99cde9e25cc53de},
		{"opt-6.7b-sim", true, protected, 0x4356e453c1e551fe},
		{"opt-6.7b-sim", true, faulted, 0x29dafa065ca056a0},
		{"gptj-6b-sim", false, bare, 0xdd84d361b5973e92},
		{"gptj-6b-sim", false, protected, 0x526ca3cc558beff2},
		{"gptj-6b-sim", false, faulted, 0xf99ea75703cb6986},
		{"gptj-6b-sim", true, bare, 0x9c955d8f0dd6a6b7},
		{"gptj-6b-sim", true, protected, 0x5c387d94c754d0d7},
		{"gptj-6b-sim", true, faulted, 0xb640fa22811a5d5d},
		{"llama2-7b-sim", false, bare, 0xfe696e410e8198f2},
		{"llama2-7b-sim", false, protected, 0x6b857107e3b79233},
		{"llama2-7b-sim", false, faulted, 0xab3f2581fe82a96a},
		{"llama2-7b-sim", true, bare, 0xb6b3fa5bae49c64e},
		{"llama2-7b-sim", true, protected, 0x2c7b7ca55263d363},
		{"llama2-7b-sim", true, faulted, 0x1caa285774ee161d},
	}
	for _, c := range cases {
		cfg, err := model.ConfigByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		m := model.MustNew(cfg, 42, numerics.FP16)
		if c.f16 {
			m.EnableF16Weights()
		}
		var inj *fault.Injector
		if c.mode == faulted {
			// Top exponent bit of a V_PROJ output at decode step 3: the
			// injector registers first, so FT2 sees the corrupted value.
			inj = fault.NewInjector(fault.Site{
				Step: 3, Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Elem: 5, Bits: []int{14},
			}, numerics.FP16)
			m.RegisterHook(inj.Hook())
		}
		var ft *core.FT2
		if c.mode != bare {
			ft = core.Attach(m, core.Defaults())
		}

		h := fnv.New64a()
		var b [8]byte
		put := func(v int) {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		tok := m.Prefill(prompt)
		put(tok)
		for s := 1; s < gen; s++ {
			tok = m.DecodeStep(tok)
			put(tok)
		}
		if ft != nil {
			put(ft.Stats().OutOfBound)
			put(ft.Stats().NaN)
			put(ft.FirstTokenNaNCount())
		}
		for _, v := range m.ReadoutLogits() {
			put(int(math.Float32bits(v)))
		}
		if inj != nil && !inj.Fired {
			t.Errorf("%s f16=%v: planned fault never fired", c.model, c.f16)
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s f16=%v mode=%d: digest %#016x, recorded %#016x", c.model, c.f16, c.mode, got, c.want)
		}
	}
}

// goldenPolicies are the tier policies TestPolicyGoldenDigest freezes, built
// per family: the stacked tier on every critical kind, duplication
// everywhere, and one of each tier cycled over the family's kinds.
var goldenPolicies = map[string]func(model.Family) *protect.Policy{
	"abft+ft2": func(f model.Family) *protect.Policy {
		p := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{}}
		for _, k := range arch.CriticalKinds(f) {
			p.Tiers[k] = protect.TierABFTFT2
		}
		return p
	},
	"dmr": func(f model.Family) *protect.Policy {
		p := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{}}
		for _, k := range f.LayerKinds() {
			p.Tiers[k] = protect.TierDMR
		}
		return p
	},
	"mixed": func(f model.Family) *protect.Policy {
		cycle := []protect.Tier{protect.TierNone, protect.TierFT2, protect.TierABFT, protect.TierABFTFT2, protect.TierDMR}
		p := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{}}
		for i, k := range f.LayerKinds() {
			p.Tiers[k] = cycle[i%len(cycle)]
		}
		return p
	},
}

// TestPolicyGoldenDigest pins the policy-driven controller to numbers
// recorded from the Hybrid dispatcher over three separate protection objects
// (internal/core/hybrid.go) that existed before core.FT2 became the one
// controller (commit a158a0e): FNV-64a over the emitted tokens, the clamp
// counters (total and per kind), the exact-tier counters, the fork state's
// wire bytes and the final step's logits. Faulted cases flip one bit in the block-0 MLP output
// projection during prefill and one in a V_PROJ output at decode step 3:
// mantissa bit 9 stays in range (only the exact tiers can see it), exponent
// bit 14 does not.
func TestPolicyGoldenDigest(t *testing.T) {
	if got := kernelProbe(); got != goldenKernelProbe {
		t.Skipf("kernel probe %#x != recorded %#x: this host's dot kernel sums in a different order than the recording host's", got, uint64(goldenKernelProbe))
	}
	const gen = 12
	prompt := []int{5, 17, 44, 9, 120, 63, 7, 200, 31}
	cases := []struct {
		model, policy string
		bit           int // flipped bit, -1 for the fault-free run
		want          uint64
	}{
		{"opt-6.7b-sim", "abft+ft2", -1, 0x847a885f75e6c554},
		{"opt-6.7b-sim", "abft+ft2", 9, 0xc75bd08b0d913824},
		{"opt-6.7b-sim", "abft+ft2", 14, 0x51692334612d3a14},
		{"opt-6.7b-sim", "dmr", -1, 0x1ed47d2b3c46115e},
		{"opt-6.7b-sim", "dmr", 9, 0x6f0d958ad59771f8},
		{"opt-6.7b-sim", "dmr", 14, 0x6f0d958ad59771f8},
		{"opt-6.7b-sim", "mixed", -1, 0x308fd0e061df95fc},
		{"opt-6.7b-sim", "mixed", 9, 0x4ebcf0f8654f6630},
		{"opt-6.7b-sim", "mixed", 14, 0x94203e55dca48115},
		{"gptj-6b-sim", "abft+ft2", -1, 0x6a667b3980905c9a},
		{"gptj-6b-sim", "abft+ft2", 9, 0x9d2d896d0af67d9d},
		{"gptj-6b-sim", "abft+ft2", 14, 0x94ea0d62cfd4145a},
		{"gptj-6b-sim", "dmr", -1, 0x7bac20d9177d58d7},
		{"gptj-6b-sim", "dmr", 9, 0x883e5af50e609de5},
		{"gptj-6b-sim", "dmr", 14, 0x883e5af50e609de5},
		{"gptj-6b-sim", "mixed", -1, 0x9cdb876c4916e70e},
		{"gptj-6b-sim", "mixed", 9, 0x16d6a7d316c7d905},
		{"gptj-6b-sim", "mixed", 14, 0xc976dd1b16c2b85f},
		{"llama2-7b-sim", "abft+ft2", -1, 0x670f1ca94c86387e},
		{"llama2-7b-sim", "abft+ft2", 9, 0xfbec3cafb5694071},
		{"llama2-7b-sim", "abft+ft2", 14, 0x6479750c10d2513e},
		{"llama2-7b-sim", "dmr", -1, 0xdee0937db0162f9f},
		{"llama2-7b-sim", "dmr", 9, 0x645fc3c75207c205},
		{"llama2-7b-sim", "dmr", 14, 0x645fc3c75207c205},
		{"llama2-7b-sim", "mixed", -1, 0x2a732868c2ceda17},
		{"llama2-7b-sim", "mixed", 9, 0x330f05342c431424},
		{"llama2-7b-sim", "mixed", 14, 0x90edadc89d1c30c5},
	}
	for _, c := range cases {
		cfg, err := model.ConfigByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		m := model.MustNew(cfg, 42, numerics.FP16)
		var injs []*fault.Injector
		if c.bit >= 0 {
			kinds := cfg.Family.LayerKinds()
			for _, site := range []fault.Site{
				{Step: 0, Layer: model.LayerRef{Block: 0, Kind: kinds[len(kinds)-1]}, Elem: 2, Bits: []int{c.bit}},
				{Step: 3, Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Elem: 5, Bits: []int{c.bit}},
			} {
				inj := fault.NewInjector(site, numerics.FP16)
				m.RegisterHook(inj.Hook())
				injs = append(injs, inj)
			}
		}
		ctl := core.NewHybrid(m, core.Defaults(), goldenPolicies[c.policy](cfg.Family), nil)
		ctl.Reset()
		ctl.Install()

		h := fnv.New64a()
		var b [8]byte
		put := func(v int) {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
		tok := m.Prefill(prompt)
		put(tok)
		for s := 1; s < gen; s++ {
			tok = m.DecodeStep(tok)
			put(tok)
		}
		put(ctl.Stats().OutOfBound)
		put(ctl.Stats().NaN)
		put(ctl.FirstTokenNaNCount())
		for _, st := range ctl.StatsByKind() {
			put(st.OutOfBound)
			put(st.NaN)
		}
		exact := ctl.DrainCounts()
		put(int(exact.ABFT.Detected))
		put(int(exact.ABFT.Corrected))
		put(int(exact.ABFT.Uncorrectable))
		put(int(exact.DMRFixed))
		fork := ctl.CaptureForkState()
		h.Write(core.AppendForkState(nil, &fork))
		for _, v := range m.ReadoutLogits() {
			put(int(math.Float32bits(v)))
		}
		for _, inj := range injs {
			if !inj.Fired {
				t.Errorf("%s %s bit %d: planned fault %v never fired", c.model, c.policy, c.bit, inj.Site)
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s %s bit %d: digest %#016x, recorded %#016x (exact tiers %+v)", c.model, c.policy, c.bit, got, c.want, exact)
		}
	}
}
