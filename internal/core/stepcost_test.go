package core

import (
	"slices"
	"testing"
	"time"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// BenchmarkFT2StepCost splits FT2's cost on generations of engine_decode's
// shape (a 32-token prompt, 97 tokens) per family. A round runs five
// generations, in an order that rotates from round to round: bare; a no-op
// hook registered (dispatch at every site); a hook that runs only
// tensor.RangeScreen, at the sites FT2 clamps (dispatch plus the screen); FT2;
// and FT2 bound to observe (Observe), which runs the first token's learn pass
// and returns at once on every decode row. It reports the median over rounds
// of each one's time over the bare generation's — dispatch_ratio,
// screen_ratio, ft2_ratio and learn_ratio — so dispatch − 1 is what hooks
// cost before any protection, screen − dispatch what the clamp sites' screen
// adds, learn − dispatch the first token's learn pass, and ft2 − screen −
// (learn − dispatch) the rest: the decode's bounds lookup, clamp past the
// screen and counters. ns/op is one round.
//
//	go test ./internal/core -run XXX -bench FT2StepCost -benchtime 200x
func BenchmarkFT2StepCost(b *testing.B) {
	for _, name := range []string{"opt-6.7b-sim", "gptj-6b-sim", "llama2-7b-sim"} {
		b.Run(name, func(b *testing.B) {
			cfg, err := model.ConfigByName(name)
			if err != nil {
				b.Fatal(err)
			}
			m := model.MustNew(cfg, 42, numerics.FP16)
			prompt := make([]int, 32)
			for i := range prompt {
				prompt[i] = 4 + (i*7)%60
			}
			const n = 97
			dst := make([]int, 0, n)
			f := New(m, Defaults())
			obs := ForkState{Bounds: protect.NewStore(), Trail: new(protect.Trail)}
			hooked := func(h model.Hook) func() {
				return func() {
					id := m.RegisterHook(h)
					dst = m.GenerateInto(dst, prompt, n)
					m.RemoveHook(id)
				}
			}
			modes := [5]func(){
				func() { dst = m.GenerateInto(dst, prompt, n) },
				hooked(func(model.HookCtx, *tensor.Tensor) {}),
				hooked(func(ctx model.HookCtx, out *tensor.Tensor) {
					if f.stages[ctx.Layer.Kind].clamp[ctx.Site] {
						tensor.RangeScreen(out.Data)
					}
				}),
				func() {
					f.Install()
					dst = f.GenerateInto(dst, prompt, n)
					f.Detach()
				},
				func() {
					obs.Bounds.Reset()
					obs.Trail.Reset()
					f.Observe(&obs)
					f.Install()
					dst = m.GenerateInto(dst, prompt, n)
					f.Detach()
				},
			}
			for _, run := range modes {
				run()
			}
			var ratios [len(modes) - 1][]float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var t [len(modes)]float64
				for j := range modes {
					k := (i + j) % len(modes)
					t0 := time.Now()
					modes[k]()
					t[k] = float64(time.Since(t0))
				}
				for k := range ratios {
					ratios[k] = append(ratios[k], t[k+1]/t[0])
				}
			}
			for k, unit := range []string{"dispatch_ratio", "screen_ratio", "ft2_ratio", "learn_ratio"} {
				slices.Sort(ratios[k])
				b.ReportMetric(ratios[k][len(ratios[k])/2], unit)
			}
		})
	}
}
