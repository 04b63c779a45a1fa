package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/protect"
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
		if !reflect.DeepEqual(res.Corrections, corr) {
			t.Fatalf("%s request %d: corrections %+v != oracle %+v", label, i, res.Corrections, corr)
		}
	}
	return st
}

// TestPrefixCacheHitBitIdentical is the tentpole contract: a second (warm)
// pass over the same shared-prefix prompt set must serve from the cache —
// every lookup a hit, fewer prompt rows computed — and still produce tokens
// bit-identical to the GenerateInto oracle, protected and not, and protected
// after bare: a protected session resumes the bounds trail an unprotected
// prefill recorded, here under a policy whose checksum repair runs before the
// clamp.
func TestPrefixCacheHitBitIdentical(t *testing.T) {
	stacked := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.VProj: protect.TierABFTFT2, model.OutProj: protect.TierFT2, model.DownProj: protect.TierABFTFT2,
	}}
	for _, tc := range []struct {
		name       string
		policy     *protect.Policy
		cold, warm bool // protected
	}{
		{"bare", nil, false, false},
		{"protected", nil, true, true},
		{"bare-then-protected/abft+ft2", stacked, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := prefixConfig(t)
			cfg.ProtectPolicy = tc.policy
			srv := newTestServer(t, cfg)

			runSharedPrefix(t, srv, SharedPrefixLoad(4, 8, 10, 48, 0.9, 42, tc.cold), "cold")
			cold := srv.PrefixStats()
			if cold.Insertions == 0 {
				t.Fatalf("cold pass inserted nothing: %+v", cold)
			}
			coldPrefill, coldPrompt, _ := srv.PrefillCounters()

			runSharedPrefix(t, srv, SharedPrefixLoad(4, 8, 10, 48, 0.9, 42, tc.warm), "warm")
			warm := srv.PrefixStats()
			if warm.Hits <= cold.Hits || warm.Misses != cold.Misses {
				t.Fatalf("warm pass missed: cold %+v warm %+v", cold, warm)
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
// the whole shared prefix — protected exactly like bare. The prompts share
// under half their rows, so every entry holds its rows whole: a later entry
// that read its shared rows from the cold one would pin it (leaf-first
// eviction).
func TestProtectedHitSurvivesColdEntryEviction(t *testing.T) {
	const promptLen, shared = 40, 16
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
	prompts := data.SharedPrefixPrompts(3, promptLen, 0.4, 23)
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

// TestProtectedComputesBareRows counts what the bounds trail on every entry
// buys: on a cache too small for the prompt list (sixty-four 176-token
// prompts sharing a 160-token system prompt, the shape of bench/'s
// serve_shared_prefix: the system prompt once and 64 suffixes are 1.16 MiB of
// KV against 1 MiB), two bare passes bring the cache to its steady cycle;
// then bare and protected passes alternate, and each protected pass computes
// exactly the prompt rows the bare pass before it did — protected sessions
// resume what bare ones cached, and the other way round — and answers what
// the oracle answers. The first sixteen prompts alone fit: one pass evicts
// nothing and the cache holds each distinct prompt row once.
func TestProtectedComputesBareRows(t *testing.T) {
	const prompts = 64
	cfg := testConfig(t)
	cfg.PrefixCacheMB, cfg.PrefillChunk = 1, 64
	list := data.SharedPrefixPrompts(prompts, herdLen, (herdShared+0.5)/herdLen, 5)

	sixteen := make([]Request, 16)
	for i := range sixteen {
		sixteen[i] = Request{PromptTokens: list[i], MaxTokens: 6}
	}
	sch, sessions := bareSchedulerOf(t, cfg, sixteen)
	driveBare(sch, sch.pool.replicas[0])
	collect(sch, sessions)
	mc := sch.pool.replicas[0].m.Cfg
	if st, want := sch.prefix.Stats(), int64(distinctPrefixes(list[:16])*mc.Blocks*2*mc.Hidden*4); st.Evictions != 0 || st.Bytes != want {
		t.Fatalf("sixteen prompts: %+v, want no eviction and %d bytes: the system prompt once plus each suffix", st, want)
	}

	pass := func(protected bool) []Request {
		reqs := make([]Request, prompts)
		for i, p := range list {
			reqs[i] = Request{PromptTokens: p, MaxTokens: 6, Protected: protected}
		}
		return reqs
	}
	sch, sessions = bareSchedulerOf(t, cfg, pass(false))
	r := sch.pool.replicas[0]
	memo := oracleMemo{}
	var bareRows int64
	for round := -2; round < 4; round++ { // two bare warm-up passes, then alternate
		protected := round%2 == 1
		reqs := pass(protected)
		before := sch.mx.prefillTokens.Load()
		if round > -2 {
			sessions = admitBare(t, sch, reqs)
		}
		r = driveBare(sch, r)
		run := collect(sch, sessions)
		if round < 0 {
			continue
		}
		memo.check(t, run, reqs)
		rows := run.prefill - before
		if !protected {
			bareRows = rows
		} else if rows != bareRows {
			t.Fatalf("round %d: the protected pass computed %d prompt rows, the bare pass before it %d", round, rows, bareRows)
		}
	}
	if st := sch.prefix.Stats(); st.Evictions == 0 {
		t.Fatalf("the list fits the cache (%+v): nothing to test", st)
	}
}

// TestObservingSessionNeverClamped: an unprotected prefill that records its
// cache entry's trail is bound to observe, which clamps nothing — neither in
// the slice its prefill ends in nor after. With the teacher prior off, FT2
// changes a few clean generations; each of those prompts, served unprotected
// on a cold cache with a prefill that ends mid-slice, must answer what the
// bare oracle answers and leave an entry that serves protected sessions (its
// trail was recorded).
func TestObservingSessionNeverClamped(t *testing.T) {
	const maxTokens = 24
	cfg := prefixConfig(t)
	mc, err := model.ConfigByName(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	mc.TeacherWeight = 0
	cfg.ModelCfg = mc
	if cfg, err = cfg.withDefaults(); err != nil {
		t.Fatal(err)
	}
	ds, err := data.ByName("tweeteval-sim", 60)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for _, in := range ds.Inputs {
		bare, _, err := Oracle(cfg, in.Prompt, maxTokens, false)
		if err != nil {
			t.Fatal(err)
		}
		prot, _, err := Oracle(cfg, in.Prompt, maxTokens, true)
		if err != nil {
			t.Fatal(err)
		}
		if !equalTokens(bare, prot) {
			reqs = append(reqs, Request{PromptTokens: in.Prompt, MaxTokens: maxTokens})
		}
	}
	if len(reqs) < 2 {
		t.Fatalf("FT2 changes %d of %d generations: pick another prompt set", len(reqs), len(ds.Inputs))
	}
	memo := oracleMemo{}
	// At 3 steps a slice the decode runs on in later slices; at 64 the whole
	// generation runs in the slice the prefill ends in.
	for _, slice := range []int{3, 64} {
		cfg.SliceSteps = slice
		for _, req := range reqs {
			if chunks := (len(req.PromptTokens) + cfg.PrefillChunk - 1) / cfg.PrefillChunk; chunks%cfg.SliceSteps == 0 {
				t.Fatalf("a %d-chunk prefill ends with its %d-step slice", chunks, cfg.SliceSteps)
			}
			sch, sessions := bareSchedulerOf(t, cfg, []Request{req})
			driveBare(sch, sch.pool.replicas[0])
			memo.check(t, collect(sch, sessions), []Request{req})
			if d := sch.prefix.Depth(req.PromptTokens, true); d != len(req.PromptTokens)-1 {
				t.Fatalf("slice %d: a protected lookup hits %d rows of the entry, want %d: no trail recorded", cfg.SliceSteps, d, len(req.PromptTokens)-1)
			}
		}
	}
}

// distinctPrefixes counts the distinct non-empty token prefixes of prompts:
// the rows a cache holding each shared row once stores for them.
func distinctPrefixes(prompts [][]int) int {
	seen := map[string]bool{}
	for _, p := range prompts {
		for n := 1; n <= len(p); n++ {
			seen[fmt.Sprint(p[:n])] = true
		}
	}
	return len(seen)
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

// TestSharedPromptTrailHeldOnce: prompts behind one system prompt hold that
// prompt's bounds-trail records once. The first prompt's entry holds its
// whole trail; every later one reads the system prompt's records from it and
// holds only those of its own rows — so sixteen entries hold less than four
// times the first one's records, where a whole trail each would be about
// sixteen times them — and every hit still matches the oracle.
func TestSharedPromptTrailHeldOnce(t *testing.T) {
	srv := newTestServer(t, prefixConfig(t))
	spec := SharedPrefixLoad(1, 16, 4, 48, 0.75, 5, true)
	first := spec
	first.Requests = 1
	runSharedPrefix(t, srv, first, "first")
	one := srv.sch.prefix.Stats().TrailBytes
	runSharedPrefix(t, srv, spec, "all")
	st := srv.sch.prefix.Stats()
	if one == 0 || st.Entries != 16 || st.TrailBytes >= 4*one {
		t.Fatalf("the first entry holds %d trail bytes, %d entries hold %d; want < %d", one, st.Entries, st.TrailBytes, 4*one)
	}
}
