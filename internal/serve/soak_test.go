//go:build soak

package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/fault"
)

// The soak's shape. A leak shows as a trend, so the medians of the first
// and last thirds of the samples taken after the warm-up are compared.
const (
	soakDuration = 10 * time.Minute
	soakEvery    = 30 * time.Second // sampling period
	soakWarmup   = 2                // samples taken while the prefix cache and state pool fill
	soakSlack    = 0.10             // a last-third median may exceed the first third's by this fraction
)

// TestSoak runs soakDuration of closed-loop RunLoad traffic through one
// server — cold and shared-prefix prompts, bare and protected, chaos KV and
// activation faults — alongside exporting sessions whose checkpoints are
// fetched while they decode. Between load rounds, with no request in
// flight, it samples every soakEvery the goroutine count, the live heap
// after a GC and ft2serve_kv_reserved_bytes, and fails when any of them
// grew past soakSlack from the first post-warm-up third to the last — or
// when ft2serve_prefix_refs_held, the prefix-cache hits sessions still
// borrow, is not 0 once every session settled.
//
// It is not part of make ci: run it with make soak.
func TestSoak(t *testing.T) {
	cfg := testConfig(t)
	cfg.PrefixCacheMB = 1 // small enough to evict from the first minute
	cfg.ExportStride = 4
	cfg.Chaos = &chaos.Config{Seed: 11, Rate: 0.25, Mix: fault.TargetMix{KV: 0.5}}
	srv := newTestServer(t, cfg)
	ctx := context.Background()
	base, vocab := testPrompts(t, 16), srv.Config().ModelCfg.Vocab
	system := base(0)
	promptFor := func(round int) func(int) []int {
		return func(i int) []int {
			p := slices.Clone(base(i))
			// A first token after BOS that earlier rounds did not use makes
			// the prompt cold…
			p[1] = 4 + (round*64+i)%(vocab-4)
			if i%2 == 0 { // …and half of them follow the shared system prompt.
				p = append(slices.Clone(system), p[1:]...)
			}
			return p
		}
	}

	// exporting runs four sessions with ids, fetching each one's checkpoint
	// every millisecond until it settles.
	exporting := func(round int) {
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := fmt.Sprint("soak-", round, "-", j)
				req := Request{PromptTokens: base(8 + j), MaxTokens: 24, Protected: j%2 == 1, Chaos: j == 3, SessionID: id}
				s, err := srv.Submit(ctx, req)
				for errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					s, err = srv.Submit(ctx, req)
				}
				if err != nil {
					t.Error(err)
					return
				}
				for done := false; !done; time.Sleep(time.Millisecond) {
					select {
					case <-s.Done():
						done = true
					default:
						srv.sch.exportFor(id) // 404 before the first mark
					}
				}
				if _, err := s.Wait(ctx); err != nil {
					t.Errorf("exporting session %s: %v", id, err)
				}
			}()
		}
		wg.Wait()
	}

	type sample struct{ goroutines, heap, kvReserved float64 }
	var samples []sample
	last := time.Now()
	for round, start := 0, time.Now(); time.Since(start) < soakDuration; round++ {
		done := make(chan struct{})
		go func() { exporting(round); close(done) }()
		st := srv.RunLoad(ctx, LoadSpec{
			Clients: 8, Requests: 32, MaxTokens: 16, Protected: round%2 == 1,
			PromptFor: promptFor(round), ChaosFor: func(i int) bool { return i%4 == 0 },
		})
		<-done
		if st.Failed > 0 || t.Failed() {
			t.Fatalf("round %d: %d requests failed: %v", round, st.Failed, st.Errs)
		}
		if time.Since(last) < soakEvery {
			continue
		}
		last = time.Now()
		// A settled session recycles its lease before it frees its slot.
		for deadline := time.Now().Add(10 * time.Second); srv.sch.activeSessions() > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: every session settled, slots still held", round)
			}
		}
		if held := srv.sch.prefix.Stats().Held; held != 0 {
			t.Fatalf("round %d: %d prefix-cache Refs held with no session live", round, held)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s := sample{float64(runtime.NumGoroutine()), float64(ms.HeapAlloc), float64(srv.mx.kvReserved.Load())}
		samples = append(samples, s)
		t.Logf("round %d: %.0f goroutines, heap %.2f MiB, KV reserved %.0f bytes", round, s.goroutines, s.heap/(1<<20), s.kvReserved)
	}

	ps := srv.sch.prefix.Stats()
	t.Logf("prefix cache: %d hits, %d misses, %d evictions, %d of %d bytes; %d marks, %d encodes",
		ps.Hits, ps.Misses, ps.Evictions, ps.Bytes, ps.Budget, srv.mx.ckptExports.Load(), srv.mx.ckptEncodes.Load())

	post := samples[min(soakWarmup, len(samples)):]
	third := len(post) / 3
	if third == 0 {
		t.Fatalf("%d samples after the warm-up, need at least 3", len(post))
	}
	median := func(xs []sample, f func(sample) float64) float64 {
		v := make([]float64, len(xs))
		for i, x := range xs {
			v[i] = f(x)
		}
		slices.Sort(v)
		return v[len(v)/2]
	}
	for _, m := range []struct {
		name string
		f    func(sample) float64
	}{
		{"goroutines", func(s sample) float64 { return s.goroutines }},
		{"live heap", func(s sample) float64 { return s.heap }},
		{"KV reserved bytes", func(s sample) float64 { return s.kvReserved }},
	} {
		first, end := median(post[:third], m.f), median(post[len(post)-third:], m.f)
		if end > first*(1+soakSlack) {
			t.Errorf("%s grew: median %.0f over the first third after warm-up, %.0f over the last", m.name, first, end)
		}
	}
}
