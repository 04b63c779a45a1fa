package protect

import (
	"math"

	"ft2/internal/model"
	"ft2/internal/tensor"
)

// DMR implements duplication in place — the high-overhead alternative the
// paper's limitations section reserves for safety-critical deployments
// ("achieving 0% SDC may require additional techniques such as duplications
// in place, where the corresponding significant overhead is expected").
//
// Each covered linear layer is re-executed from its input and any
// disagreement with the observed output is replaced by the recomputed
// value. Because the redundant execution happens after the fault lands in
// the first result, a single transient fault in a covered layer is always
// detected and corrected, regardless of magnitude — at roughly 2× the
// compute of the covered layers.
type DMR struct {
	m       *model.Model
	covered [model.NumLayerKinds]bool
	// Detected counts mismatching values corrected so far.
	Detected int
	// scratch receives every redundant execution; it is resized per layer by
	// RecomputeLinearInto and reused across calls, keeping DMR off the decode
	// hot path's allocation budget. Safe because a DMR is bound to a single
	// model and hooks run on the model's goroutine.
	scratch *tensor.Tensor
}

// NewDMR builds a duplication-in-place protector for the model. kinds
// restricts coverage; pass nothing to duplicate every linear layer.
func NewDMR(m *model.Model, kinds ...model.LayerKind) *DMR {
	d := &DMR{m: m, scratch: tensor.New(1, 1)}
	if len(kinds) == 0 {
		kinds = model.AllLayerKinds
	}
	for _, k := range kinds {
		d.covered[k] = true
	}
	return d
}

// Hook returns the forward hook performing the redundant execution: the one
// recompute-and-replace-differing-elements routine (the ABFT checker's repair
// step calls it too).
func (d *DMR) Hook() model.Hook {
	return func(ctx model.HookCtx, out *tensor.Tensor) {
		if ctx.Site != model.SiteLinearOut || ctx.Input == nil || !d.covered[ctx.Layer.Kind] {
			return
		}
		clean := d.m.RecomputeLinearInto(d.scratch, ctx.Layer, ctx.Input)
		for i, v := range out.Data {
			c := clean.Data[i]
			if v != c && !(math.IsNaN(float64(v)) && math.IsNaN(float64(c))) {
				out.Data[i] = c
				d.Detected++
			}
		}
	}
}
