package model_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"ft2/internal/arch"
	"ft2/internal/core"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// goldenProbes are the kernelProbe values of the three kernel tiers, in the
// column order of every digests row below: the FMA tier, the SSE tier (an
// amd64 host without FMA, or GODEBUG=cpu.fma=off) and the portable kernels
// (GOARCH=386). Each column was recorded from the tree before the kernel
// change it now guards.
var goldenProbes = [...]uint64{0x24155616b9be16cb, 0xf16e259738cec01c, 0xff6e2cb8ef939f9a}

// digests holds one golden case's digest on each tier of goldenProbes.
type digests [len(goldenProbes)]uint64

// goldenTier returns this host's column in goldenProbes, or -1 with the
// probe when no table was recorded on its tier.
func goldenTier() (int, uint64) {
	probe := kernelProbe()
	for i, p := range goldenProbes {
		if p == probe {
			return i, probe
		}
	}
	return -1, probe
}

// goldenResult is one golden case's digest on this host beside its row.
type goldenResult struct {
	name string
	got  uint64
	want digests
}

// checkGolden compares each result with its row's column for this host's
// tier; on an unknown tier it fails with the probe and the digests to record.
func checkGolden(t *testing.T, results []goldenResult) {
	t.Helper()
	tier, probe := goldenTier()
	if tier < 0 {
		var b strings.Builder
		for _, r := range results {
			fmt.Fprintf(&b, "\t%#016x, // %s\n", r.got, r.name)
		}
		t.Fatalf("kernel probe %#016x has no recorded table; record it in goldenProbes and these digests, in case order, as its column:\n%s", probe, b.String())
	}
	t.Logf("golden column %d", tier)
	for _, r := range results {
		if w := r.want[tier]; r.got != w {
			t.Errorf("%s: digest %#016x, recorded %#016x (tier %d)", r.name, r.got, w, tier)
		}
	}
}

// TestGoldenDigestsWithoutMathFMA re-runs both golden tests in child
// processes: under GODEBUG=cpu.fma=off, which drops an FMA host to the SSE
// tier and math.Exp off its FMA path, so one machine checks two of the
// tables; and under GODEBUG=cpu.avx512f=off, which leaves an AVX-512 host on
// the FMA tier with the YMM m=1 sweep and must read the FMA column.
func TestGoldenDigestsWithoutMathFMA(t *testing.T) {
	if tier, _ := goldenTier(); tier != 0 {
		t.Skip("not on the FMA tier: the child would re-run this host's own table")
	}
	for _, child := range []struct {
		godebug string
		column  int
	}{{"cpu.fma=off", 1}, {"cpu.avx512f=off", 0}} {
		cmd := exec.Command(os.Args[0], "-test.run=^Test(Serial|Policy)GoldenDigest$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), "GODEBUG="+child.godebug)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Errorf("GODEBUG=%s: %v\n%s", child.godebug, err, out)
		} else if want := fmt.Sprintf("golden column %d\n", child.column); !strings.Contains(string(out), want) {
			t.Errorf("GODEBUG=%s: the child did not read column %d\n%s", child.godebug, child.column, out)
		}
	}
}

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
		want  digests
	}{
		{"opt-6.7b-sim", false, bare, digests{0x3c2dd0df43333d27, 0x3131490eb3fd2436, 0x60bf2572e746b736}},
		{"opt-6.7b-sim", false, protected, digests{0x0f8763a0a52d6a87, 0x7bde68a9bba68d56, 0x54be8c6684709856}},
		{"opt-6.7b-sim", false, faulted, digests{0xcaf87e8fd8827b53, 0xae785bcc4c4cf74c, 0x00a65c6343b4cfff}},
		{"opt-6.7b-sim", true, bare, digests{0xa99cde9e25cc53de, 0x9cdf1e679f2a1d93, 0x678dac18666d6c87}},
		{"opt-6.7b-sim", true, protected, digests{0x4356e453c1e551fe, 0x70e961650d9101f3, 0xedef72786cfba1e7}},
		{"opt-6.7b-sim", true, faulted, digests{0x29dafa065ca056a0, 0xaea534c133bb0468, 0x5c31f69269eca7f4}},
		{"gptj-6b-sim", false, bare, digests{0xdd84d361b5973e92, 0x24914183a6473a39, 0x86686fdc213456ae}},
		{"gptj-6b-sim", false, protected, digests{0x526ca3cc558beff2, 0x6a6105aa4ba1d8d9, 0x03d3b8e378c1d0ce}},
		{"gptj-6b-sim", false, faulted, digests{0xf99ea75703cb6986, 0xa56f75b90961ba2f, 0xb6063a8901eae926}},
		{"gptj-6b-sim", true, bare, digests{0x9c955d8f0dd6a6b7, 0xb1664a3e7ea5e65d, 0x2d78e3950710d502}},
		{"gptj-6b-sim", true, protected, digests{0x5c387d94c754d0d7, 0x73b62196c37527fd, 0x8145b3a0375257a2}},
		{"gptj-6b-sim", true, faulted, digests{0xb640fa22811a5d5d, 0x613116e7b13b83f6, 0x5873a2f889432b9e}},
		{"llama2-7b-sim", false, bare, digests{0xfe696e410e8198f2, 0xd81655357a1eefb9, 0x84e242e37179cfe5}},
		{"llama2-7b-sim", false, protected, digests{0x6b857107e3b79233, 0xc031f2102eb8cf08, 0x30b09bb4d3a62620}},
		{"llama2-7b-sim", false, faulted, digests{0xab3f2581fe82a96a, 0xfb08b20578ce401c, 0xcc0acfc8778e0775}},
		{"llama2-7b-sim", true, bare, digests{0xb6b3fa5bae49c64e, 0x8810b72a8a28d335, 0x7df7be55d126c807}},
		{"llama2-7b-sim", true, protected, digests{0x2c7b7ca55263d363, 0x740a9ff4f9712e70, 0x8b06af71f059fa12}},
		{"llama2-7b-sim", true, faulted, digests{0x1caa285774ee161d, 0xa782a10011e4b772, 0x2c17ae8f39866af9}},
	}
	var results []goldenResult
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
		results = append(results, goldenResult{fmt.Sprintf("%s f16=%v mode=%d", c.model, c.f16, c.mode), h.Sum64(), c.want})
	}
	checkGolden(t, results)
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
	const gen = 12
	prompt := []int{5, 17, 44, 9, 120, 63, 7, 200, 31}
	cases := []struct {
		model, policy string
		bit           int // flipped bit, -1 for the fault-free run
		want          digests
	}{
		{"opt-6.7b-sim", "abft+ft2", -1, digests{0x847a885f75e6c554, 0x60f30f6f9b0d20a0, 0x1c3bc61afd3bb828}},
		{"opt-6.7b-sim", "abft+ft2", 9, digests{0xc75bd08b0d913824, 0xd83d615b40cc2b77, 0xb84e62b403e3b209}},
		{"opt-6.7b-sim", "abft+ft2", 14, digests{0x51692334612d3a14, 0x15a392402b345ee0, 0x36071116d4014168}},
		{"opt-6.7b-sim", "dmr", -1, digests{0x1ed47d2b3c46115e, 0xa658431cc2739533, 0x3bf37a6edd27289f}},
		{"opt-6.7b-sim", "dmr", 9, digests{0x6f0d958ad59771f8, 0xf619191284473b59, 0x5aa55e0e66d5fd0d}},
		{"opt-6.7b-sim", "dmr", 14, digests{0x6f0d958ad59771f8, 0xf619191284473b59, 0x5aa55e0e66d5fd0d}},
		{"opt-6.7b-sim", "mixed", -1, digests{0x308fd0e061df95fc, 0xe8a5989f80d60a65, 0x04a6171a35017df9}},
		{"opt-6.7b-sim", "mixed", 9, digests{0x4ebcf0f8654f6630, 0xc4cfa19102f7cb43, 0xb5a27249945fdb35}},
		{"opt-6.7b-sim", "mixed", 14, digests{0x94203e55dca48115, 0xc3845a9fe8a74a6e, 0x3fc1cf46e1bc94a0}},
		{"gptj-6b-sim", "abft+ft2", -1, digests{0x6a667b3980905c9a, 0x90719941335eba51, 0xe75ca9f1c2a42cb6}},
		{"gptj-6b-sim", "abft+ft2", 9, digests{0x9d2d896d0af67d9d, 0xd2d9506ebdf76dd2, 0xa481f187de6c78f3}},
		{"gptj-6b-sim", "abft+ft2", 14, digests{0x94ea0d62cfd4145a, 0xae13fc94d407db91, 0x138ddc831e4abbf6}},
		{"gptj-6b-sim", "dmr", -1, digests{0x7bac20d9177d58d7, 0xc837e42b9b349fe4, 0x92ae53e5f0993947}},
		{"gptj-6b-sim", "dmr", 9, digests{0x883e5af50e609de5, 0x2f8a6561d912934a, 0x883752a22bed0819}},
		{"gptj-6b-sim", "dmr", 14, digests{0x883e5af50e609de5, 0x2f8a6561d912934a, 0x883752a22bed0819}},
		{"gptj-6b-sim", "mixed", -1, digests{0x9cdb876c4916e70e, 0xb074f6b7257455ed, 0xa2c2489f205b390a}},
		{"gptj-6b-sim", "mixed", 9, digests{0x16d6a7d316c7d905, 0xa71831a5de6157ea, 0x204c7300cd64b23b}},
		{"gptj-6b-sim", "mixed", 14, digests{0xc976dd1b16c2b85f, 0xfa3f5ab0041f5e6d, 0x7cb18afb34104e89}},
		{"llama2-7b-sim", "abft+ft2", -1, digests{0x670f1ca94c86387e, 0x7d79f1c0f54d81dd, 0x33e23d8b86392002}},
		{"llama2-7b-sim", "abft+ft2", 9, digests{0xfbec3cafb5694071, 0xc920e894ebcf77d2, 0x034862615c55b3a8}},
		{"llama2-7b-sim", "abft+ft2", 14, digests{0x6479750c10d2513e, 0x5de9508e7eaa3d9d, 0x446d13378ccf1442}},
		{"llama2-7b-sim", "dmr", -1, digests{0xdee0937db0162f9f, 0xa2b592c8069bcf3c, 0x89e4a893acea14b0}},
		{"llama2-7b-sim", "dmr", 9, digests{0x645fc3c75207c205, 0xa9e970630854b506, 0x5819c575cb300142}},
		{"llama2-7b-sim", "dmr", 14, digests{0x645fc3c75207c205, 0xa9e970630854b506, 0x5819c575cb300142}},
		{"llama2-7b-sim", "mixed", -1, digests{0x2a732868c2ceda17, 0x8ee3b5be981f9674, 0x93628b54b56a2570}},
		{"llama2-7b-sim", "mixed", 9, digests{0x330f05342c431424, 0xeda317c393f03003, 0x0fcfc18dbaa14eaa}},
		{"llama2-7b-sim", "mixed", 14, digests{0x90edadc89d1c30c5, 0x8bc17558aa516ddc, 0x7a70a4f4eb3f9779}},
	}
	var results []goldenResult
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
		results = append(results, goldenResult{fmt.Sprintf("%s %s bit %d", c.model, c.policy, c.bit), h.Sum64(), c.want})
	}
	checkGolden(t, results)
}
