package protect

import (
	"ft2/internal/model"
	"ft2/internal/tensor"
)

// OfflineProfile runs fault-free generations over a profiling corpus and
// records the min/max activation of every hook site — the expensive offline
// bound-profiling workflow of the baselines (Section 3.2: 20% of the
// training set). The returned store covers all sites; protectors consult
// only their covered subset.
//
// genTokens is the number of tokens generated per input (the paper profiles
// full generations so that every token step's activations contribute).
func OfflineProfile(m *model.Model, prompts [][]int, genTokens int) *Store {
	store := NewStore()
	h := m.RegisterHook(func(ctx model.HookCtx, out *tensor.Tensor) {
		store.Observe(SiteKey{Layer: ctx.Layer, Site: ctx.Site}, out)
	})
	defer m.RemoveHook(h)
	for _, p := range prompts {
		m.Generate(p, genTokens)
	}
	return store
}
