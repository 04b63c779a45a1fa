package serve

import (
	"context"
	"sync"
	"testing"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
)

// TestSharedBoundsStoreConcurrent is the data-race witness for the serving
// design's central sharing assumption: after the first token, the FT2 hook
// only reads its bounds store, so ONE captured store may back arbitrarily
// many concurrent protected generations. Ten goroutines, each with its own
// replica and controller, resume from the same ForkState (same
// protect.Store pointer) and must produce outputs bit-identical to the
// sequential reference. Run under -race this fails on any hidden write to
// the shared store.
func TestSharedBoundsStoreConcurrent(t *testing.T) {
	const (
		goroutines = 10
		maxTokens  = 16
	)
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	prompts := testPrompts(t, goroutines)

	// Profile the bounds once: run one protected prefill and capture the
	// fork state. The clone inside CaptureForkState is the store every
	// goroutine will share read-only.
	profiler, err := model.New(cfg, 7, numerics.FP16)
	if err != nil {
		t.Fatal(err)
	}
	pf := core.New(profiler, core.Defaults())
	pf.Reset()
	pf.Install()
	profiler.Prefill(prompts(0))
	shared := pf.CaptureForkState()

	// resume runs one protected generation for prompt i, decoding from the
	// shared bounds after its own prefill-equivalent warmup. Each call gets
	// a private model and controller; only the bounds store is shared.
	resume := func(i int) []int {
		m, err := model.New(cfg, 7, numerics.FP16)
		if err != nil {
			panic(err)
		}
		f := core.New(m, core.Defaults())
		f.ResumeFork(core.ForkState{Bounds: shared.Bounds})
		f.Install()
		out := make([]int, 0, maxTokens)
		tok := m.Prefill(prompts(i))
		out = append(out, tok)
		for len(out) < maxTokens {
			tok = m.DecodeStep(tok)
			out = append(out, tok)
		}
		return out
	}

	sequential := make([][]int, goroutines)
	for i := range sequential {
		sequential[i] = resume(i)
	}

	concurrent := make([][]int, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i] = resume(i)
		}(i)
	}
	wg.Wait()

	for i := range sequential {
		if !equalTokens(concurrent[i], sequential[i]) {
			t.Fatalf("goroutine %d: concurrent %v != sequential %v", i, concurrent[i], sequential[i])
		}
	}
}

// TestServerSharedLoadRace drives the full serving stack with more
// concurrent clients than replicas under -race: the scheduler, metrics,
// and session park/resume paths all get exercised with true concurrency,
// and the outputs must still match the single-client run bit for bit.
func TestServerSharedLoadRace(t *testing.T) {
	cfg := Config{
		Model:       "qwen2-1.5b-sim",
		Seed:        7,
		Replicas:    2,
		MaxSessions: 8,
		SliceSteps:  2,
	}
	prompts := testPrompts(t, 4)
	const requests, maxTokens = 8, 10

	run := func(clients int) [][]int {
		srv := newTestServer(t, cfg)
		st := srv.RunLoad(context.Background(), LoadSpec{
			Clients: clients, Requests: requests, MaxTokens: maxTokens,
			Protected: true, PromptFor: prompts,
		})
		if st.Failed > 0 {
			t.Fatalf("clients=%d: %v", clients, st.Errs)
		}
		out := make([][]int, requests)
		for i, r := range st.Results {
			out[i] = r.Tokens
		}
		return out
	}

	sequential := run(1)
	concurrent := run(8)
	for i := range sequential {
		if !equalTokens(concurrent[i], sequential[i]) {
			t.Fatalf("request %d: concurrent %v != sequential %v", i, concurrent[i], sequential[i])
		}
	}
}
