package campaign

import (
	"context"
	"math"

	"ft2/internal/model"
	"ft2/internal/protect"
)

// Golden-checkpoint forking.
//
// A trial injects exactly one fault at one pre-sampled step; everything the
// model computes before that step is bit-identical to the deterministic
// fault-free run under the same protection method. The campaign therefore
// records, once per input, checkpoints of that fault-free *protected*
// generation at a configurable step stride, and every trial whose injection
// step lands in the decode window restores the nearest checkpoint at or
// below its injection step and recomputes only the divergent suffix.
// Prefill-window trials (step 0) fall back to a full run.
//
// The checkpoint run uses the spec's protection, not the bare model: a
// protection may legitimately fire on fault-free steps (the Figure 3
// phenomenon), so the fault-free protected trajectory — tokens and
// correction counters — is what a trial's prefix actually computes. Each
// forkPoint carries the protection-side counters alongside the model
// snapshot, and FT2's first-token bounds (fixed after the prefill) are
// captured once per input and shared read-only across workers.

// forkPoint is one restorable checkpoint of an input's fault-free protected
// generation: the model state before step snap.NextStep() plus the
// protection counters accumulated over steps 0..NextStep-1.
type forkPoint struct {
	snap model.Snapshot
	// corr holds the clamp's following-token correction counters at the
	// checkpoint (first-token NaN corrections are tracked separately in
	// ftNaN).
	corr  protect.CorrectionStats
	ftNaN int
}

// inputFork holds the fork state of one dataset input.
type inputFork struct {
	// out is the complete fault-free protected generation; a forked trial
	// copies out[:NextStep] as its token prefix.
	out []int
	// points are the checkpoints in ascending NextStep order, at steps
	// 1, 1+stride, 1+2·stride, ...
	points []forkPoint
	// ftBounds are the clamp's raw bounds for this input — the first-token
	// profile, or a copy of the offline store (nil when unprotected); decode
	// steps only read them, so the store is shared across worker replicas.
	ftBounds *protect.Store
}

// forkStore is the per-campaign, read-only golden checkpoint store built
// once before the worker pool starts.
type forkStore struct {
	stride int
	inputs []inputFork
}

// nearest returns the latest checkpoint whose NextStep is ≤ step, or nil
// when none qualifies (step 0, or a degenerate single-token generation).
func (fs *forkStore) nearest(input, step int) *forkPoint {
	pts := fs.inputs[input].points
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].snap.NextStep() <= step {
			return &pts[i]
		}
	}
	return nil
}

// MemoryBytes returns the KV payload held by every checkpoint — the
// quantity Spec.CheckpointStride bounds.
func (fs *forkStore) MemoryBytes() int {
	total := 0
	for i := range fs.inputs {
		for j := range fs.inputs[i].points {
			total += fs.inputs[i].points[j].snap.MemoryBytes()
		}
	}
	return total
}

// checkpointStride resolves the spec's checkpoint stride: an explicit
// positive value wins; otherwise the stride defaults to ⌈√GenTokens⌉, which
// balances the mean fault-free replay ((stride−1)/2 steps per trial)
// against the number of retained snapshots (⌈(GenTokens−1)/stride⌉, each
// Blocks × 2 × rows × Hidden floats).
func (s Spec) checkpointStride() int {
	if s.CheckpointStride > 0 {
		return s.CheckpointStride
	}
	st := int(math.Ceil(math.Sqrt(float64(s.Dataset.GenTokens))))
	if st < 1 {
		st = 1
	}
	return st
}

// buildForkStore records the golden checkpoints of every input by driving
// one fault-free generation per input under the spec's protection method on
// a dedicated replica. Returns nil when forking cannot help (NoFork set, or
// no decode steps to skip into).
func buildForkStore(ctx context.Context, spec Spec, base *model.Model) (*forkStore, error) {
	if spec.NoFork || spec.Dataset.GenTokens < 2 {
		return nil, nil
	}
	r := newTrialRunner(spec, base, nil, nil)
	m := r.m
	n := spec.Dataset.GenTokens
	fs := &forkStore{stride: spec.checkpointStride(), inputs: make([]inputFork, len(spec.Dataset.Inputs))}
	for i, in := range spec.Dataset.Inputs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.ClearHooks()
		// Arm the protection exactly as a trial does (minus the injector,
		// the per-trial hook, and the watchdog — none of which belong in
		// the fault-free reference run).
		r.arm(nil)

		f := inputFork{out: make([]int, 0, n)}
		tok := m.Prefill(in.Prompt)
		f.out = append(f.out, tok)
		if r.ctl != nil {
			// Bounds are complete once the prefill finished; clone them out
			// of the controller so later inputs' Resets cannot clear them.
			f.ftBounds = r.ctl.CaptureForkState().Bounds
		}
		for s := 1; s < n; s++ {
			if (s-1)%fs.stride == 0 {
				var p forkPoint
				m.Checkpoint(&p.snap)
				if r.ctl != nil {
					// The clamp's counters only: the exact-repair stages'
					// counts are drained per trial, not resumed state.
					p.corr, p.ftNaN = r.ctl.Stats(), r.ctl.FirstTokenNaNCount()
				}
				f.points = append(f.points, p)
			}
			tok = m.DecodeStep(tok)
			f.out = append(f.out, tok)
		}
		fs.inputs[i] = f
	}
	m.ClearHooks()
	return fs, nil
}
