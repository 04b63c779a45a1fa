// Command ft2policy derives an adaptive per-layer protection policy from
// measured vulnerability: it runs two fault-injection campaigns over the same
// fault distribution — unprotected and FT2-protected — breaks the SDC rates
// down by layer kind, and assigns every kind the cheapest sufficient tier
// (none / ft2 / abft / dmr / abft+ft2; see protect.DerivePolicy):
//
//	ft2policy -model llama2-7b-sim -trials 400 -o policy.json
//	ft2serve -model llama2-7b-sim -protect-policy policy.json
//
// The profiling distribution can include persistent weight corruption and
// KV-cache flips (-mix-weight / -mix-kv), matching what the chaos engine
// throws at a live server, so the derived tiers reflect the faults the
// policy will actually face.
package main

import (
	"flag"
	"fmt"
	"os"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/cliutil"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
)

func main() {
	modelName := flag.String("model", "llama2-7b-sim", "zoo model name")
	dsName := flag.String("dataset", "squad-sim", "dataset name")
	inputs := flag.Int("inputs", 5, "evaluation inputs")
	faultName := flag.String("fault", "EXP", "fault model: 1-bit, 2-bit, EXP")
	trials := flag.Int("trials", 300, "fault injections per campaign (two campaigns run)")
	mixWeight := flag.Float64("mix-weight", 0.2, "fraction of faults landing in persistent weight corruption")
	mixKV := flag.Float64("mix-kv", 0.2, "fraction of faults landing in resident KV-cache state")
	dtype := cliutil.RegisterDType(flag.CommandLine)
	seed := flag.Int64("seed", 42, "base seed")
	out := flag.String("o", "policy.json", "output policy path (- for stdout)")
	base := cliutil.RegisterBase(flag.CommandLine)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "ft2policy:", err)
		os.Exit(1)
	}

	cfg, err := model.ConfigByName(*modelName)
	if err != nil {
		die(err)
	}
	ds, err := data.ByName(*dsName, *inputs)
	if err != nil {
		die(err)
	}
	var fm numerics.FaultModel
	switch *faultName {
	case "1-bit":
		fm = numerics.SingleBit
	case "2-bit":
		fm = numerics.DoubleBit
	case "EXP", "exp":
		fm = numerics.ExponentBit
	default:
		die(fmt.Errorf("unknown fault model %q", *faultName))
	}

	spec := campaign.Spec{
		ModelCfg: cfg, ModelSeed: *seed, DType: *dtype,
		Fault: fm, FT2Opts: core.Defaults(),
		Dataset: ds, Trials: *trials, BaseSeed: *seed + 1000,
		Targets: fault.TargetMix{Weight: *mixWeight, KV: *mixKV},
	}

	ctx, stop := base.Context()
	defer stop()

	// Two campaigns over the identical fault distribution: the unprotected
	// rate says whether a kind needs protection at all; the FT2 rate says
	// whether the cheap clamp is sufficient or exact correction is needed.
	spec.Method = arch.MethodNone
	fmt.Fprintf(os.Stderr, "ft2policy: profiling %s over %d unprotected trials...\n", cfg.Name, *trials)
	unprot, err := campaign.RunContext(ctx, spec)
	if err != nil {
		die(err)
	}
	spec.Method = arch.MethodFT2
	fmt.Fprintf(os.Stderr, "ft2policy: profiling %s over %d FT2-protected trials...\n", cfg.Name, *trials)
	ft2, err := campaign.RunContext(ctx, spec)
	if err != nil {
		die(err)
	}

	profiles := make(map[model.LayerKind]protect.KindProfile)
	for _, k := range cfg.Family.LayerKinds() {
		pu, pf := unprot.ByKind[k], ft2.ByKind[k]
		if pu.Trials == 0 {
			continue // the sampler never hit this kind; DerivePolicy treats it as unmeasured
		}
		profiles[k] = protect.KindProfile{
			Unprotected: pu.P(),
			FT2:         pf.P(),
			Trials:      pf.Trials,
		}
	}
	policy := protect.DerivePolicy(cfg.Family, profiles)

	fmt.Printf("model=%s dataset=%s fault=%s mix=%.0f%%w/%.0f%%kv trials=%d×2\n",
		cfg.Name, ds.Name, fm, *mixWeight*100, *mixKV*100, *trials)
	fmt.Printf("%-10s %-12s %-12s %s\n", "kind", "unprotected", "ft2", "tier")
	for _, k := range cfg.Family.LayerKinds() {
		prof, ok := profiles[k]
		if !ok {
			fmt.Printf("%-10s %-12s %-12s %s\n", k, "-", "-", policy.Tier(k))
			continue
		}
		fmt.Printf("%-10s %-12s %-12s %s\n", k,
			fmt.Sprintf("%.2f%%", prof.Unprotected*100),
			fmt.Sprintf("%.2f%%", prof.FT2*100), policy.Tier(k))
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			die(err)
		}
		defer f.Close()
		w = f
	}
	if err := protect.SavePolicy(w, policy, profiles); err != nil {
		die(err)
	}
	if *out != "-" {
		fmt.Printf("ft2policy: wrote %s\n", *out)
	}
}
