// Command calibrate is a development harness for tuning the simulation
// constants (logit scale, weight stds, trial counts) so the reproduction's
// SDC-rate shapes track the paper.
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
)

func main() {
	modelName := flag.String("model", "llama2-7b-sim", "zoo model")
	dsName := flag.String("dataset", "gsm8k-sim", "dataset")
	trials := flag.Int("trials", 300, "trials per method")
	inputs := flag.Int("inputs", 5, "dataset inputs")
	fm := flag.String("fault", "EXP", "fault model: 1-bit, 2-bit, EXP")
	teacher := flag.Float64("teacher", -1, "override TeacherWeight")
	profN := flag.Int("profn", 30, "profiling split size")
	flag.Parse()

	cfg, err := model.ConfigByName(*modelName)
	if err != nil {
		panic(err)
	}
	if *teacher >= 0 {
		cfg.TeacherWeight = float32(*teacher)
	}
	ds, err := data.ByName(*dsName, *inputs)
	if err != nil {
		panic(err)
	}
	var faultModel numerics.FaultModel
	switch *fm {
	case "1-bit":
		faultModel = numerics.SingleBit
	case "2-bit":
		faultModel = numerics.DoubleBit
	default:
		faultModel = numerics.ExponentBit
	}

	m := model.MustNew(cfg, 42, numerics.FP16)
	t0 := time.Now()
	bounds := protect.OfflineProfile(m, ds.ProfileSplit(*profN).Prompts(), ds.GenTokens)
	fmt.Println("profile time:", time.Since(t0))

	for _, meth := range []arch.Method{arch.MethodNone, arch.MethodRanger, arch.MethodMaxiMals, arch.MethodGlobalClipper, arch.MethodFT2, arch.MethodFT2Offline} {
		spec := campaign.Spec{
			ModelCfg: cfg, ModelSeed: 42, DType: numerics.FP16,
			Fault: faultModel, Method: meth, FT2Opts: core.Defaults(),
			OfflineBounds: bounds, Dataset: ds, Trials: *trials, BaseSeed: 7,
		}
		t1 := time.Now()
		res, err := campaign.Run(spec)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-22s SDC=%s corrections=%d (%.1fs)\n", meth, res.SDC, res.Corrections.Total(), time.Since(t1).Seconds())
		kinds := make([]model.LayerKind, 0, len(res.ByKind))
		for k := range res.ByKind {
			kinds = append(kinds, k)
		}
		sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
		for _, k := range kinds {
			p := res.ByKind[k]
			if p.Successes > 0 {
				fmt.Printf("    %-10s %s\n", k, p)
			}
		}
	}
}
