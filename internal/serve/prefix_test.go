package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ft2/internal/data"
	"ft2/internal/model"
)

// prefixConfig is testConfig plus the prefix cache and a small prefill
// grain, so chunked prefills and cache hits both exercise under
// time-slicing pressure.
func prefixConfig(t *testing.T) Config {
	cfg := testConfig(t)
	cfg.PrefixCacheMB = 8
	cfg.PrefillChunk = 4
	return cfg
}

// runSharedPrefix drives one warm-up-capable pass of the shared-prefix
// scenario and asserts every result against the oracle.
func runSharedPrefix(t *testing.T, srv *Server, spec LoadSpec, label string) LoadStats {
	t.Helper()
	st := srv.RunLoad(context.Background(), spec)
	if st.Failed > 0 {
		t.Fatalf("%s: %d requests failed: %v", label, st.Failed, st.Errs)
	}
	for i, res := range st.Results {
		want, corr, err := Oracle(srv.Config(), spec.PromptFor(i), spec.MaxTokens, spec.Protected)
		if err != nil {
			t.Fatal(err)
		}
		if !equalTokens(res.Tokens, want) {
			t.Fatalf("%s request %d: served %v != oracle %v", label, i, res.Tokens, want)
		}
		if spec.Protected && (res.Corrections.OutOfBound != corr.OutOfBound ||
			res.Corrections.NaN != corr.NaN ||
			res.Corrections.FirstTokenNaN != corr.FirstTokenNaN) {
			t.Fatalf("%s request %d: corrections %+v != oracle %+v", label, i, res.Corrections, corr)
		}
	}
	return st
}

// TestPrefixCacheHitBitIdentical is the tentpole contract: a second (warm)
// pass over the same shared-prefix prompt set must serve from the cache —
// hits recorded, fewer prompt rows computed — and still produce tokens
// bit-identical to the GenerateInto oracle, protected and not.
func TestPrefixCacheHitBitIdentical(t *testing.T) {
	for _, protected := range []bool{false, true} {
		label := map[bool]string{false: "bare", true: "protected"}[protected]
		t.Run(label, func(t *testing.T) {
			srv := newTestServer(t, prefixConfig(t))
			spec := SharedPrefixLoad(4, 8, 10, 48, 0.9, 42, protected)

			runSharedPrefix(t, srv, spec, "cold")
			cold := srv.PrefixStats()
			if cold.Insertions == 0 {
				t.Fatalf("cold pass inserted nothing: %+v", cold)
			}
			coldPrefill, coldPrompt, _ := srv.PrefillCounters()

			runSharedPrefix(t, srv, spec, "warm")
			warm := srv.PrefixStats()
			if warm.Hits <= cold.Hits {
				t.Fatalf("warm pass recorded no hits: cold %+v warm %+v", cold, warm)
			}
			warmPrefill, warmPrompt, _ := srv.PrefillCounters()
			if warmPrompt-coldPrompt != coldPrompt {
				t.Fatalf("prompt token accounting: cold %d, warm delta %d", coldPrompt, warmPrompt-coldPrompt)
			}
			if warmPrefill-coldPrefill >= coldPrefill {
				t.Fatalf("warm pass computed no fewer prefill tokens: cold %d, warm %d",
					coldPrefill, warmPrefill-coldPrefill)
			}
		})
	}
}

// TestProtectedHitDepthMatchesBare: first-token bounds are row-granular, so
// the same request list — six prompts sharing a 43-token system prompt, not a
// multiple of the 8-row prefill chunk — costs a protected server exactly the
// cached rows and prefill work it costs an unprotected one: one cold prefill,
// then five hits at the full shared depth.
func TestProtectedHitDepthMatchesBare(t *testing.T) {
	const requests, promptLen, shared = 6, 48, 43
	for _, protected := range []bool{false, true} {
		cfg := prefixConfig(t)
		cfg.PrefillChunk = 8
		srv := newTestServer(t, cfg)
		// One client: every request finds its predecessors' entries inserted.
		spec := SharedPrefixLoad(1, requests, 6, promptLen, 0.9, 11, protected)
		runSharedPrefix(t, srv, spec, "shared")
		hitRows := srv.PrefixStats().HitRows
		prefill, prompt, _ := srv.PrefillCounters()
		if hitRows != (requests-1)*shared || prefill != prompt-hitRows || prompt != requests*promptLen {
			t.Fatalf("protected=%v: prefix_hit_rows %d, prefill_tokens %d of %d prompt tokens; want %d hit rows",
				protected, hitRows, prefill, prompt, (requests-1)*shared)
		}
	}
}

// TestProtectedHitSurvivesColdEntryEviction: a session that resumed from the
// cache inserts an entry whose bounds trail is complete from row 0, so once
// the original cold entry is evicted the next new-suffix prompt still hits
// the whole shared prefix — protected exactly like bare.
func TestProtectedHitSurvivesColdEntryEviction(t *testing.T) {
	const promptLen, shared = 40, 36
	cfg := prefixConfig(t)
	cfg.PrefixCacheMB = 1
	cfg.PrefillChunk = 8
	// A model deep enough that the 1 MiB budget holds two 40-row prompts and
	// not three.
	mc, err := model.ConfigByName(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	mc.Name, mc.Blocks, mc.Hidden, mc.Heads, mc.FFN, mc.MaxSeq = "prefix-evict-test", 16, 96, 8, 192, 64
	cfg.ModelCfg = mc
	if entry := mc.Blocks * 2 * promptLen * mc.Hidden * 4; 2*entry > 1<<20 || 3*entry <= 1<<20 {
		t.Fatalf("a %d-byte entry does not make the budget hold exactly two", entry)
	}
	prompts := data.SharedPrefixPrompts(3, promptLen, 0.9, 23)
	unrelated := data.SharedPrefixPrompts(1, promptLen+1, 0.9, 99)[0][1:] // no BOS: shares no token

	for _, protected := range []bool{false, true} {
		srv := newTestServer(t, cfg)
		run := func(prompt []int) (hitRows int64) {
			t.Helper()
			before := srv.PrefixStats().HitRows
			res := submitAndWait(t, srv, Request{PromptTokens: prompt, MaxTokens: 6, Protected: protected})
			want, _, err := Oracle(srv.Config(), prompt, 6, protected)
			if err != nil {
				t.Fatal(err)
			}
			if !equalTokens(res.Tokens, want) {
				t.Fatalf("protected=%v: served %v != oracle %v", protected, res.Tokens, want)
			}
			return srv.PrefixStats().HitRows - before
		}
		run(prompts[0]) // cold
		if got := run(prompts[1]); got != shared {
			t.Fatalf("protected=%v: second prompt hit %d rows, want %d", protected, got, shared)
		}
		run(prompts[1]) // touch: the cold entry is now least recently used
		run(unrelated)  // and this insert evicts it
		if st := srv.PrefixStats(); st.Evictions != 1 || st.Entries != 2 {
			t.Fatalf("protected=%v: cold entry not evicted: %+v", protected, st)
		}
		if got := run(prompts[2]); got != shared {
			t.Fatalf("protected=%v: new-suffix prompt hit %d rows with the cold entry evicted, want %d", protected, got, shared)
		}
	}
}

// TestChunkedPrefillBitIdentical pins chunked prefill alone (cache off):
// long prompts split across slices must not change a single token, and the
// chunk counter must show the splitting actually happened.
func TestChunkedPrefillBitIdentical(t *testing.T) {
	cfg := testConfig(t)
	cfg.PrefillChunk = 3
	srv := newTestServer(t, cfg)
	spec := SharedPrefixLoad(4, 8, 10, 30, 0.5, 7, true)
	runSharedPrefix(t, srv, spec, "chunked")
	_, _, chunks := srv.PrefillCounters()
	if chunks < int64(spec.Requests)*2 {
		t.Fatalf("prefill chunks = %d, want ≥ %d (30-token prompts at grain 3)",
			chunks, spec.Requests*2)
	}
}

// TestMaxTokensOverflowRejected pins the admission bugfix: a max_tokens near
// MaxInt must answer 400 at the boundary, not wrap the sequence check
// negative and panic in the engine.
func TestMaxTokensOverflowRejected(t *testing.T) {
	srv := newTestServer(t, testConfig(t))
	for _, maxTokens := range []int{math.MaxInt, math.MaxInt - 10, srv.Config().ModelCfg.MaxSeq + 1} {
		_, err := srv.Submit(context.Background(), Request{
			PromptTokens: []int{1, 2, 3},
			MaxTokens:    maxTokens,
		})
		if err == nil {
			t.Fatalf("max_tokens=%d admitted", maxTokens)
		}
		if got := errStatus(err); got != http.StatusBadRequest {
			t.Fatalf("max_tokens=%d: status %d, want 400 (%v)", maxTokens, got, err)
		}
	}
}

// TestPrefixMetricsExposed asserts the documented metric names appear on
// /metrics when the cache is enabled.
func TestPrefixMetricsExposed(t *testing.T) {
	srv := newTestServer(t, prefixConfig(t))
	spec := SharedPrefixLoad(2, 4, 6, 32, 0.9, 3, false)
	runSharedPrefix(t, srv, spec, "cold")
	runSharedPrefix(t, srv, spec, "warm")

	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{
		"ft2serve_prefix_hits",
		"ft2serve_prefix_misses",
		"ft2serve_prefix_evictions",
		"ft2serve_prefix_entries",
		"ft2serve_prefill_chunks_total",
		"ft2serve_prefill_tokens_total",
		"ft2serve_prompt_tokens_total",
		"ft2serve_prefill_coalesced_total",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("metrics missing %s:\n%s", name, body)
		}
	}
}
