package main

import (
	"context"
	"fmt"
	"runtime"

	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/experiments"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/serve"
)

// gate is one row of the CI performance guard behind `make perfguard`: side b
// must run at least threshold times as fast as side a, as the paired time
// ratio a/b that experiments.Pair measures. build constructs both sides
// (warmed up, reporting failures through fail) and a cleanup.
type gate struct {
	name      string
	threshold float64
	pairs     int
	build     func(seed int64, fail func(error)) (a, b func(), done func(), err error)
}

// The thresholds are loose on purpose — a gate fails on a lost mechanism, not
// on noise: the static-threshold dispatch bug cost P=4 30-50%; a prefix cache
// that stops helping loses the ~90% of prefill rows it skips (measured 4×);
// the serving stack (continuous batching, fused groups, prefix cache, two
// replicas' worth of cores) measures 2.7-3.1× one protected Generate per
// request on the 2-vCPU reference host, and still 2.3-2.4× with BatchMax: 1 —
// so the last gate guards the stack as a whole, not fusion alone, and is named
// for that. Whether decode allocates is asserted by the internal/model and
// internal/serve tests, not here.
var gates = []gate{
	decodeGate("opt-6.7b-sim"),
	decodeGate("gptj-6b-sim"),
	decodeGate("llama2-7b-sim"),
	{"prefix-cache: warm vs cold", 1.0, 8, buildPrefixGate},
	{"serve: stack vs Generate", 1.35, 8, buildServeGate},
}

// runPerfGuard evaluates every gate and fails on the first whose median
// ratio is below its threshold. The caller installs the kernel cost model
// first.
func runPerfGuard(seed int64) error {
	ambient := runtime.GOMAXPROCS(0)
	for _, g := range gates {
		var failure error
		a, b, done, err := g.build(seed, func(err error) {
			if failure == nil {
				failure = err
			}
		})
		if err != nil {
			return fmt.Errorf("%s: %w", g.name, err)
		}
		r := experiments.Pair(g.pairs, a, b)
		done()
		runtime.GOMAXPROCS(ambient)
		if failure != nil {
			return fmt.Errorf("%s: %w", g.name, failure)
		}
		fmt.Printf("perfguard: %-28s %.2f ± %.2f  (need ≥ %.2f)\n", g.name, r.Ratio, r.Spread, g.threshold)
		if r.Ratio < g.threshold {
			return fmt.Errorf("%s: paired speedup %.2f ± %.2f is below %.2f", g.name, r.Ratio, r.Spread, g.threshold)
		}
	}
	return nil
}

// decodeGate: with the calibrated cost model, P=4 single-session decode must
// not lose to P=1 (the dispatch regression the cost model eliminated). The
// prompt is fixed and short, so the gate has no dataset dependency.
func decodeGate(name string) gate {
	return gate{name + ": P=4 vs P=1", 0.90, 200, func(seed int64, _ func(error)) (a, b func(), done func(), err error) {
		cfg, err := model.ConfigByName(name)
		if err != nil {
			return nil, nil, nil, err
		}
		m, err := model.New(cfg, seed, numerics.FP16)
		if err != nil {
			return nil, nil, nil, err
		}
		prompt, buf := []int{4, 8, 15, 16, 23, 42}, make([]int, 0, 32)
		at := func(procs int) func() {
			return func() {
				runtime.GOMAXPROCS(procs)
				m.GenerateInto(buf, prompt, 32)
			}
		}
		at(4)() // warm scratch arenas, KV slabs and the pool's helpers
		return at(1), at(4), func() {}, nil
	}}
}

// buildPrefixGate: serving a shared-prefix client storm warm (cache on,
// primed) must out-run the identical load cold (cache off) — otherwise
// cache lookups, snapshot forks, or chunked prefill cost more than the
// prefill compute they avoid.
func buildPrefixGate(seed int64, fail func(error)) (a, b func(), done func(), err error) {
	spec := serve.SharedPrefixLoad(16, 32, 16, 96, 0.9, seed, false)
	var servers []*serve.Server
	side := func(cacheMB int) (func(), error) {
		srv, err := serve.New(serve.Config{Model: "qwen2-1.5b-sim", Seed: seed, PrefillChunk: 64, PrefixCacheMB: cacheMB})
		if err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		run := loadSide(srv, spec, fail)
		run() // warm-up; primes the cache when there is one
		return run, nil
	}
	if a, err = side(0); err == nil {
		b, err = side(64)
	}
	return a, b, func() { shutdown(servers...) }, err
}

// buildServeGate: a 16-client protected load at GOMAXPROCS=4 on the
// production configuration (fused continuous batching + prefix cache) must
// beat the naive baseline — the same requests as one protected Generate each,
// nothing shared.
func buildServeGate(seed int64, fail func(error)) (a, b func(), done func(), err error) {
	const prompts, requests, maxTokens = 8, 96, 32
	runtime.GOMAXPROCS(4)
	ds, err := data.ByName("squad-sim", prompts)
	if err != nil {
		return nil, nil, nil, err
	}
	promptFor := func(i int) []int { return ds.Inputs[i%prompts].Prompt }
	srv, err := serve.New(serve.Config{Model: "llama2-7b-sim", Seed: seed, PrefixCacheMB: 32})
	if err != nil {
		return nil, nil, nil, err
	}
	ecfg := srv.Config()
	m, err := model.New(ecfg.ModelCfg, ecfg.Seed, ecfg.DType)
	if err != nil {
		shutdown(srv)
		return nil, nil, nil, err
	}
	f := core.Attach(m, ecfg.FT2Opts)
	buf := make([]int, 0, maxTokens)
	serial := func() {
		for i := 0; i < requests; i++ {
			f.GenerateInto(buf, promptFor(i), maxTokens)
		}
	}
	fused := loadSide(srv, serve.LoadSpec{
		Clients: 16, Requests: requests, MaxTokens: maxTokens, Protected: true, PromptFor: promptFor,
	}, fail)
	f.GenerateInto(buf, promptFor(0), maxTokens)
	fused()
	return serial, fused, func() { shutdown(srv) }, nil
}

// loadSide is one RunLoad of spec on srv; a failed request fails the gate.
func loadSide(srv *serve.Server, spec serve.LoadSpec, fail func(error)) func() {
	return func() {
		if st := srv.RunLoad(context.Background(), spec); st.Failed > 0 {
			fail(fmt.Errorf("%d of %d requests failed", st.Failed, st.Requests))
		}
	}
}

func shutdown(servers ...*serve.Server) {
	for _, s := range servers {
		s.Shutdown(context.Background())
	}
}
