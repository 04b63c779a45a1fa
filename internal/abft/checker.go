package abft

import (
	"math"

	"ft2/internal/model"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// LinearChecker is ABFT adapted to the decode hot path as a forward hook.
// Instead of checksum-extending a full matrix product (CheckedMatMul's
// O(m·n·k) framing), it verifies each linear-layer output row against a
// reference column-sum of the weight matrix captured at build time:
//
//	Σ_o out[r,o]  ≈  Σ_i x[r,i]·colSumW[i] + Σ_o b[o]
//
// which costs O(in+out) per row per layer — negligible next to the O(in·out)
// matmul it guards. On a mismatch the layer is recomputed from its input and
// differing elements repaired in place, which corrects any transient fault
// in the output (in-range flips included — the blind spot of pure range
// restriction). A detection the recompute *agrees* with is evidence the
// weights themselves no longer match the reference sums — the live suspicion
// signal for persistent weight corruption, surfaced as Uncorrectable.

// RowTolerance bounds the relative row-sum discrepancy attributed to the
// FP16 precision gate (each output element is rounded to ~2^-11 relative,
// and the errors sum); it scales with the row's absolute mass.
const RowTolerance = 4e-3

// refSum is one layer's reference checksums.
type refSum struct {
	colSumW []float64 // Σ_o w[o,i] per input channel
	sumB    float64   // Σ_o b[o]
}

// RefSums holds the per-layer reference checksums of one weight
// parameterization. It is immutable after capture and safe to share across
// the replicas of one weight set (model.Replica), and across models built
// from the same (cfg, seed, dtype, storage) — their weights are
// bit-identical.
type RefSums struct {
	sums map[model.LayerRef]refSum
}

// CaptureRefSums computes reference checksums for every linear layer of the
// given kinds (all family kinds when none are given) from m's current
// weights, read in place (model.ReadWeight: a shared matrix stays shared).
// Capture it at build time, before any fault can land.
func CaptureRefSums(m *model.Model, kinds ...model.LayerKind) *RefSums {
	covered := kindSet(m, kinds)
	rs := &RefSums{sums: make(map[model.LayerRef]refSum)}
	for _, ref := range m.Cfg.LinearLayers() {
		if !covered[ref.Kind] {
			continue
		}
		w := m.ReadWeight(ref)
		cs := make([]float64, w.Cols)
		for o := 0; o < w.Rows; o++ {
			for i, v := range w.Row(o) {
				cs[i] += float64(v)
			}
		}
		var sb float64
		for _, v := range m.Bias(ref) {
			sb += float64(v)
		}
		rs.sums[ref] = refSum{colSumW: cs, sumB: sb}
	}
	return rs
}

// Stats counts what a LinearChecker observed. Corrected counts repaired
// elements; Uncorrectable counts detections where the recomputation
// reproduced the flagged output — input-consistent corruption, i.e. the
// weights disagree with the build-time reference sums.
type Stats struct {
	Detected      int64
	Corrected     int64
	Uncorrectable int64
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Detected += s2.Detected
	s.Corrected += s2.Corrected
	s.Uncorrectable += s2.Uncorrectable
}

// LinearChecker verifies covered linear-layer outputs against reference
// checksums and repairs transient corruption by recomputation. It follows
// the model's single-owner contract: one checker per replica goroutine.
type LinearChecker struct {
	refs    *RefSums
	covered [model.NumLayerKinds]bool
	Stats   Stats
	// dmr re-executes a flagged layer and replaces the differing elements;
	// repair is its hook, bound once so a detection allocates nothing.
	dmr    *protect.DMR
	repair model.Hook
}

// NewLinearChecker builds a checker over m using previously captured
// reference sums (which may be shared across replicas). Only layers both
// requested in kinds (all when empty) and present in refs are checked.
func NewLinearChecker(m *model.Model, refs *RefSums, kinds ...model.LayerKind) *LinearChecker {
	c := &LinearChecker{refs: refs, covered: kindSet(m, kinds), dmr: protect.NewDMR(m)}
	c.repair = c.dmr.Hook()
	return c
}

// Refs returns the reference sums the checker compares against.
func (c *LinearChecker) Refs() *RefSums { return c.refs }

// kindSet marks the given kinds, or every kind of m's family when none are
// given.
func kindSet(m *model.Model, kinds []model.LayerKind) (set [model.NumLayerKinds]bool) {
	if len(kinds) == 0 {
		kinds = m.Cfg.Family.LayerKinds()
	}
	for _, k := range kinds {
		set[k] = true
	}
	return set
}

// DrainStats returns the counts accumulated since the previous drain and
// resets them — the per-slice absorption point for serving metrics.
func (c *LinearChecker) DrainStats() Stats {
	s := c.Stats
	c.Stats = Stats{}
	return s
}

// Hook returns the forward hook performing the check. Register it after any
// fault injector (so it sees corrupted outputs) and before range-restriction
// hooks (so those see the repaired values).
func (c *LinearChecker) Hook() model.Hook {
	return func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Site != model.SiteLinearOut || ctx.Input == nil || !c.covered[ctx.Layer.Kind] {
			return
		}
		rs, ok := c.refs.sums[ctx.Layer]
		if !ok {
			return
		}
		bad := false
		for r := 0; r < out.Rows && !bad; r++ {
			var actual, mass float64
			for _, v := range out.Row(r) {
				actual += float64(v)
				mass += math.Abs(float64(v))
			}
			exp := rs.sumB
			for i, v := range ctx.Input.Row(r) {
				exp += float64(v) * rs.colSumW[i]
			}
			tol := RowTolerance * (mass + math.Abs(exp) + 1)
			if math.IsNaN(actual) != math.IsNaN(exp) || math.Abs(actual-exp) > tol {
				bad = true
			}
		}
		if !bad {
			return
		}
		c.Stats.Detected++
		before := c.dmr.Detected
		c.repair(ctx, out)
		if fixed := c.dmr.Detected - before; fixed > 0 {
			c.Stats.Corrected += int64(fixed)
		} else {
			c.Stats.Uncorrectable++
		}
	}
}
