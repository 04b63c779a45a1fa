package abft

import (
	"math/rand"
	"testing"

	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

func checkerCfg(t *testing.T) model.Config {
	t.Helper()
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func sameTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// A clean generation must pass every check silently and stay bit-identical
// to an unhooked run — the checker's false-positive budget is zero repairs.
func TestLinearCheckerCleanRun(t *testing.T) {
	cfg := checkerCfg(t)
	prompt := []int{4, 9, 14, 19}
	golden := model.MustNew(cfg, 5, numerics.FP16).Generate(prompt, 12)

	m := model.MustNew(cfg, 5, numerics.FP16)
	chk := NewLinearChecker(m, CaptureRefSums(m))
	m.RegisterHook(chk.Hook())
	got := m.Generate(prompt, 12)
	if chk.Stats.Corrected != 0 || chk.Stats.Uncorrectable != 0 {
		t.Errorf("clean run repaired something: %+v", chk.Stats)
	}
	if !sameTokens(golden, got) {
		t.Error("checker perturbed a clean generation")
	}
}

// A transient activation flip on a covered layer is detected, repaired by
// recomputation, and the generation lands bit-identical to the fault-free
// run — the correction FT2's range clamp cannot deliver (a clamp saturates;
// the recompute restores the exact value).
func TestLinearCheckerCorrectsTransientFault(t *testing.T) {
	cfg := checkerCfg(t)
	prompt := []int{4, 9, 14, 19}
	golden := model.MustNew(cfg, 5, numerics.FP16).Generate(prompt, 12)

	m := model.MustNew(cfg, 5, numerics.FP16)
	chk := NewLinearChecker(m, CaptureRefSums(m))
	site := fault.Site{Step: 2, Layer: model.LayerRef{Block: 1, Kind: model.VProj}, Elem: 3, Bits: []int{14}}
	inj := fault.NewInjector(site, numerics.FP16)
	m.RegisterHook(inj.Hook()) // injector first: checker sees the corruption
	m.RegisterHook(chk.Hook())
	got := m.Generate(prompt, 12)
	if !inj.Fired {
		t.Fatal("injector never fired")
	}
	if chk.Stats.Detected == 0 || chk.Stats.Corrected == 0 {
		t.Fatalf("fault not repaired: %+v", chk.Stats)
	}
	if chk.Stats.Uncorrectable != 0 {
		t.Errorf("transient fault misclassified as uncorrectable: %+v", chk.Stats)
	}
	if !sameTokens(golden, got) {
		t.Errorf("repaired run diverged from golden: %v vs %v", got, golden)
	}
}

// Persistent weight corruption makes the output disagree with the reference
// sums while the recomputation — using the same corrupted weights —
// reproduces it exactly: detected, not correctable. This Uncorrectable
// signal is what the serving layer escalates to a checksum scrub.
func TestLinearCheckerFlagsWeightCorruption(t *testing.T) {
	cfg := checkerCfg(t)
	prompt := []int{4, 9, 14, 19}
	ref := model.LayerRef{Block: 0, Kind: model.VProj}

	m := model.MustNew(cfg, 5, numerics.FP16)
	refs := CaptureRefSums(m) // build-time, before any corruption

	// Find the input channel with the most mass at prefill so the single
	// corrupted weight element provably moves the row checksum.
	var best int
	var bestAbs float32
	probe := m.RegisterHook(func(ctx model.HookCtx, _ *tensor.Tensor) {
		if ctx.Layer != ref || ctx.Step != 0 {
			return
		}
		for i, v := range ctx.Input.Row(0) {
			if v < 0 {
				v = -v
			}
			if v > bestAbs {
				bestAbs, best = v, i
			}
		}
	})
	m.Generate(prompt, 1)
	m.RemoveHook(probe)

	w := m.Weight(ref)
	w.Data[best] += 32 // row 0, channel best

	chk := NewLinearChecker(m, refs)
	m.RegisterHook(chk.Hook())
	m.Generate(prompt, 8)
	if chk.Stats.Detected == 0 {
		t.Fatal("weight corruption never detected")
	}
	if chk.Stats.Uncorrectable == 0 {
		t.Errorf("weight corruption not flagged uncorrectable: %+v", chk.Stats)
	}
}

// DrainStats hands out since-last-drain deltas.
func TestLinearCheckerDrainStats(t *testing.T) {
	cfg := checkerCfg(t)
	m := model.MustNew(cfg, 5, numerics.FP16)
	chk := NewLinearChecker(m, CaptureRefSums(m))
	chk.Stats = Stats{Detected: 3, Corrected: 2, Uncorrectable: 1}
	if got := chk.DrainStats(); got != (Stats{Detected: 3, Corrected: 2, Uncorrectable: 1}) {
		t.Errorf("first drain = %+v", got)
	}
	if got := chk.DrainStats(); got != (Stats{}) {
		t.Errorf("second drain not zero: %+v", got)
	}
}

// CheckedMatMul now reports which rows/columns mismatched — single faults
// localize to one of each; a two-element burst in one row shows one bad row
// with two bad columns (detected, honestly not corrected).
func TestCheckedMatMulExportsMismatchIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randMat(rng, 6, 5), randMat(rng, 5, 7)
	_, res, err := CheckedMatMul(a, b, func(c *tensor.Tensor) {
		c.Set(3, 4, c.At(3, 4)+50)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corrected || len(res.BadRows) != 1 || len(res.BadCols) != 1 ||
		res.BadRows[0] != 3 || res.BadCols[0] != 4 {
		t.Errorf("single fault localization: %+v", res)
	}

	_, res, err = CheckedMatMul(a, b, func(c *tensor.Tensor) {
		c.Set(2, 1, c.At(2, 1)+40)
		c.Set(2, 5, c.At(2, 5)-40)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected || res.Corrected {
		t.Fatalf("burst must detect without correcting: %+v", res)
	}
	if len(res.BadCols) != 2 || res.BadCols[0] != 1 || res.BadCols[1] != 5 {
		t.Errorf("burst bad columns = %v, want [1 5]", res.BadCols)
	}
}
