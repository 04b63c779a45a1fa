// Command ft2inject runs a standalone fault-injection campaign for one
// model × dataset × fault model × protection cell and prints the SDC rate
// with its per-layer-kind breakdown:
//
//	ft2inject -model llama2-7b-sim -dataset gsm8k-sim -fault EXP -method ft2 -trials 500
//
// Campaigns are interruptible and resumable: SIGINT/SIGTERM (or -timeout)
// stops the run and prints the statistics over the completed trials, and
// with -journal/-resume a re-run executes only the missing trials.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/cliutil"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/report"
)

func main() {
	modelName := flag.String("model", "llama2-7b-sim", "zoo model name")
	dsName := flag.String("dataset", "squad-sim", "dataset name")
	faultName := flag.String("fault", "EXP", "fault model: 1-bit, 2-bit, EXP")
	methodName := flag.String("method", "none", "protection: none, ranger, maximals, globalclipper, ft2, ft2-offline")
	trials := flag.Int("trials", 300, "fault injections")
	inputs := flag.Int("inputs", 5, "evaluation inputs")
	profileN := flag.Int("profile", 40, "profiling-split size (offline methods)")
	dtype := cliutil.RegisterDType(flag.CommandLine)
	window := flag.String("window", "all", "injection window: all, first-token, following")
	seed := flag.Int64("seed", 42, "base seed")
	cf := cliutil.RegisterCampaign(flag.CommandLine)
	flag.Parse()

	die := func(err error) {
		fmt.Fprintln(os.Stderr, "ft2inject:", err)
		os.Exit(1)
	}
	if err := cf.Validate(); err != nil {
		die(err)
	}

	cfg, err := model.ConfigByName(*modelName)
	if err != nil {
		die(err)
	}
	ds, err := data.ByName(*dsName, *inputs)
	if err != nil {
		die(err)
	}
	fm, err := parseFault(*faultName)
	if err != nil {
		die(err)
	}
	method, err := parseMethod(*methodName)
	if err != nil {
		die(err)
	}

	spec := campaign.Spec{
		ModelCfg: cfg, ModelSeed: *seed, DType: *dtype,
		Fault: fm, Method: method, FT2Opts: core.Defaults(),
		Dataset: ds, Trials: *trials, BaseSeed: *seed + 1000,
	}
	switch *window {
	case "first-token":
		spec.Window = campaign.WindowFirstToken
	case "following":
		spec.Window = campaign.WindowFollowing
	case "all":
	default:
		die(fmt.Errorf("unknown window %q", *window))
	}
	switch method {
	case arch.MethodRanger, arch.MethodMaxiMals, arch.MethodGlobalClipper, arch.MethodFT2Offline:
		m, err := model.New(cfg, *seed, *dtype)
		if err != nil {
			die(err)
		}
		spec.OfflineBounds = protect.OfflineProfile(m, ds.ProfileSplit(*profileN).Prompts(), ds.GenTokens)
	}

	ctx, stop := cf.Context()
	defer stop()
	j, err := cf.OpenJournal()
	if err != nil {
		die(err)
	}
	if j != nil {
		defer j.Close()
	}
	cf.ApplySpec(&spec, j)

	start := time.Now()
	res, err := campaign.RunContext(ctx, spec)
	interrupted := cliutil.Interrupted(err)
	if err != nil && !interrupted && res.Completed == 0 {
		die(err)
	}

	fmt.Printf("model=%s dataset=%s fault=%s method=%s dtype=%s window=%s (%.1fs)\n",
		cfg.Name, ds.Name, fm, method, *dtype, *window, time.Since(start).Seconds())
	fmt.Printf("SDC rate: %s\n", res.SDC)
	fmt.Printf("corrections: %d out-of-bound, %d NaN\n", res.Corrections.OutOfBound, res.Corrections.NaN)
	fmt.Println("per-layer-kind SDC:")
	kinds := make([]model.LayerKind, 0, len(res.ByKind))
	for k := range res.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Printf("  %-10s %s\n", k, res.ByKind[k])
	}
	if res.Partial() || res.Failed > 0 {
		byKind := make(map[string]int, len(res.FailuresByKind))
		for k, n := range res.FailuresByKind {
			byKind[k.String()] = n
		}
		fmt.Println()
		fmt.Println(report.CampaignBreakdown(res.Completed, res.Failed, res.Skipped, byKind, res.ErrorSummaries()).String())
	}
	if interrupted {
		os.Exit(cf.InterruptNotice("ft2inject", err))
	}
	if err != nil {
		die(err)
	}
}

func parseFault(s string) (numerics.FaultModel, error) {
	switch s {
	case "1-bit":
		return numerics.SingleBit, nil
	case "2-bit":
		return numerics.DoubleBit, nil
	case "EXP", "exp":
		return numerics.ExponentBit, nil
	default:
		return 0, fmt.Errorf("unknown fault model %q", s)
	}
}

func parseMethod(s string) (arch.Method, error) {
	switch s {
	case "none":
		return arch.MethodNone, nil
	case "ranger":
		return arch.MethodRanger, nil
	case "maximals":
		return arch.MethodMaxiMals, nil
	case "globalclipper":
		return arch.MethodGlobalClipper, nil
	case "ft2":
		return arch.MethodFT2, nil
	case "ft2-offline":
		return arch.MethodFT2Offline, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}
