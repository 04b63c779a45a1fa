package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ft2/internal/core"
	"ft2/internal/data"
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
		f.Bind(&core.ForkState{Bounds: shared.Bounds})
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
// and the outputs must still match the single-client run bit for bit. Half
// the prompts share a system prompt, so sessions borrow prefix-cache rows,
// and alongside the load four exporting sessions on shared prompts have
// their checkpoints fetched over HTTP while they decode: the handler
// goroutine encodes borrowed rows while workers decode over the same entry.
func TestServerSharedLoadRace(t *testing.T) {
	cfg := Config{
		Model:         "qwen2-1.5b-sim",
		Seed:          7,
		Replicas:      2,
		MaxSessions:   8,
		SliceSteps:    2,
		PrefixCacheMB: 8,
		ExportStride:  2,
		StepDelay:     time.Millisecond, // long enough sessions for the fetches to find marks
	}
	plain, shared := testPrompts(t, 4), data.SharedPrefixPrompts(8, 40, 0.8, 3)
	prompts := func(i int) []int {
		if i%2 == 1 {
			return shared[i/2]
		}
		return plain(i / 2)
	}
	const requests, maxTokens, exporters = 12, 10, 4

	run := func(clients int) [][]int {
		srv := newTestServer(t, cfg)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		out := make([][]int, requests+exporters)
		var wg sync.WaitGroup
		for j := range exporters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := fmt.Sprint("export-", j)
				s, err := srv.Submit(context.Background(), Request{
					PromptTokens: shared[4+j], MaxTokens: 3 * maxTokens, Protected: j%2 == 1, SessionID: id,
				})
				if err != nil {
					t.Error(err)
					return
				}
				for done := false; !done; {
					select {
					case <-s.Done():
						done = true
					default:
						resp, err := http.Get(ts.URL + "/v1/sessions/export?id=" + id)
						if err != nil {
							t.Error(err)
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
				res, err := s.Wait(context.Background())
				if err != nil {
					t.Errorf("exporting session %s: %v", id, err)
				}
				out[requests+j] = res.Tokens
			}()
		}
		st := srv.RunLoad(context.Background(), LoadSpec{
			Clients: clients, Requests: requests, MaxTokens: maxTokens,
			Protected: true, PromptFor: prompts,
		})
		wg.Wait()
		if st.Failed > 0 {
			t.Fatalf("clients=%d: %v", clients, st.Errs)
		}
		if ps := srv.PrefixStats(); ps.Hits == 0 {
			t.Fatalf("clients=%d: no session hit the prefix cache", clients)
		}
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
