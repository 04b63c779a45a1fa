package model_test

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ft2/internal/arch"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// trailRun is what one protected generation leaves behind.
type trailRun struct {
	toks   []int
	fork   core.ForkState
	bytes  []byte // AppendForkState of fork
	logits []uint32
}

// runProtected prefills prompt[from:] in chunks of at most chunk rows on the
// open prefill of m's own state, decodes gen tokens in all, and captures
// what the controller and the readout hold at the end.
func runProtected(m *model.Model, ctl *core.FT2, prompt []int, from, chunk, gen int) trailRun {
	var r trailRun
	for pos := from; pos < len(prompt); {
		n := min(chunk, len(prompt)-pos)
		if tok, done := m.PrefillChunk(prompt[pos : pos+n]); done {
			r.toks = append(r.toks, tok)
		}
		pos += n
	}
	for len(r.toks) < gen {
		r.toks = append(r.toks, m.DecodeStep(r.toks[len(r.toks)-1]))
	}
	r.fork = ctl.CaptureForkState()
	r.bytes = core.AppendForkState(nil, &r.fork)
	for _, v := range m.ReadoutLogits() {
		r.logits = append(r.logits, math.Float32bits(v))
	}
	return r
}

// sameProfile compares two first-token profiles entry by entry, on bits.
func sameProfile(a *protect.Store, aNaN int, b *protect.Store, bNaN int) bool {
	ea, eb := a.SortedEntries(), b.SortedEntries()
	if aNaN != bNaN || len(ea) != len(eb) {
		return false
	}
	for i := range ea {
		if ea[i].Key != eb[i].Key ||
			math.Float32bits(ea[i].Bounds.Lo) != math.Float32bits(eb[i].Bounds.Lo) ||
			math.Float32bits(ea[i].Bounds.Hi) != math.Float32bits(eb[i].Bounds.Hi) {
			return false
		}
	}
	return true
}

// TestTrailResumesAtEveryDepth is the row-granular bounds property. For the
// three families × seeded random prompts (one of each pair with NaNs injected
// into two first-token rows, so the additive count is exercised) × prefill
// chunk sizes × every resume depth d:
//
//	(a) the trail of the full prompt's prefill, folded at d, is entry for
//	    entry the store and NaN count of a one-pass prefill of prompt[:d];
//	(b) a session forked at d from the cached KV and that trail, decoded 8
//	    tokens, equals the cold run on tokens, fork-state bytes, correction
//	    counters and final logits bits — and leaves an equal trail behind,
//	    so its own cache entry serves hits at any depth too.
func TestTrailResumesAtEveryDepth(t *testing.T) {
	const gen = 8
	for _, f := range []model.Family{model.FamilyOPT, model.FamilyGPTJ, model.FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := mixedCfg(f)
			m := model.MustNew(cfg, 21, numerics.FP16)
			// The injector runs before the controller, like a campaign's: NaN
			// into one neuron of a protected layer on the prompt rows in bad.
			target := model.LayerRef{Block: 0, Kind: arch.CriticalKinds(f)[0]}
			var bad []int
			m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
				if !ctx.FirstToken || ctx.Layer != target || ctx.Site != model.SiteLinearOut {
					return
				}
				for _, row := range bad {
					if r := row - ctx.Pos; r >= 0 && r < out.Rows {
						out.Row(r)[3] = float32(math.NaN())
					}
				}
			})
			ctl := core.Attach(m, core.Defaults())

			rng := rand.New(rand.NewSource(int64(f) + 5))
			for trial := 0; trial < 4; trial++ {
				prompt := make([]int, 3+rng.Intn(38))
				for i := range prompt {
					prompt[i] = 4 + rng.Intn(cfg.Vocab-4)
				}
				bad = nil
				if trial%2 == 1 {
					bad = []int{rng.Intn(len(prompt)), rng.Intn(len(prompt))}
				}

				// One-pass reference profiles of every proper prefix.
				refs := make([]*protect.Store, len(prompt))
				refNaN := make([]int, len(prompt))
				for d := 1; d < len(prompt); d++ {
					ctl.Reset()
					m.Prefill(prompt[:d])
					refs[d], refNaN[d] = ctl.Bounds().Clone(), ctl.FirstTokenNaNCount()
				}

				for _, chunk := range []int{1, 7, 64, len(prompt)} {
					ctl.Reset()
					m.BeginPrefill(len(prompt))
					cold := runProtected(m, ctl, prompt, 0, chunk, gen)
					if bad != nil && cold.fork.FirstTokenNaN == 0 {
						t.Fatalf("trial %d: injected NaNs were not corrected", trial)
					}
					var snap model.Snapshot
					m.Checkpoint(&snap)
					kv := snap.Prefix(len(prompt)) // what the prefix cache would hold

					for d := 1; d < len(prompt); d++ {
						store, nan := cold.fork.Trail.At(d)
						if !sameProfile(store, nan, refs[d], refNaN[d]) {
							t.Fatalf("trial %d chunk %d: trail.At(%d) = %d NaN\n%s want %d NaN\n%s",
								trial, chunk, d, nan, store, refNaN[d], refs[d])
						}

						m.BeginPrefill(len(prompt))
						m.State().ResumePrefix(kv.Prefix(d))
						ctl.Bind(&core.ForkState{Bounds: store, FirstTokenNaN: nan, Trail: cold.fork.Trail.Prefix(d)})
						warm := runProtected(m, ctl, prompt, d, chunk, gen)
						if !slices.Equal(warm.toks, cold.toks) || !bytes.Equal(warm.bytes, cold.bytes) ||
							warm.fork.Stats != cold.fork.Stats || warm.fork.ByKind != cold.fork.ByKind ||
							!slices.Equal(warm.logits, cold.logits) {
							t.Fatalf("trial %d chunk %d: resumed at %d diverged from the cold run\n tokens %v vs %v\n stats %+v vs %+v",
								trial, chunk, d, warm.toks, cold.toks, warm.fork.Stats, cold.fork.Stats)
						}
						for d2 := 1; d2 <= len(prompt); d2++ {
							ws, wn := warm.fork.Trail.At(d2)
							cs, cn := cold.fork.Trail.At(d2)
							if !sameProfile(ws, wn, cs, cn) {
								t.Fatalf("trial %d chunk %d: trail of the session resumed at %d differs from the cold one at depth %d",
									trial, chunk, d, d2)
							}
						}
					}
				}
			}
		})
	}
}
