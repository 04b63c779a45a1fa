package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ft2/internal/chaos"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/protect"
)

// chaosConfig is an aggressive chaos regime on the smallest zoo model: one
// replica (so chaos and control traffic must share it), small slices, and
// more than one expected fault arrival per slice.
func chaosConfig(t *testing.T, cc chaos.Config) Config {
	t.Helper()
	cfg := testConfig(t)
	cfg.Chaos = &cc
	return cfg
}

// testPolicy exercises every protection tier in one serving policy.
func testPolicy() *protect.Policy {
	return &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.VProj:    protect.TierFT2,
		model.OutProj:  protect.TierFT2,
		model.DownProj: protect.TierABFTFT2,
		model.QProj:    protect.TierDMR,
		model.KProj:    protect.TierABFT,
	}}
}

// TestServedWithPolicyMatchesOracle pins the adaptive-protection serving
// contract: a policy-protected generation served through the batched
// scheduler — hybrid controllers parked and resumed across slices — is
// bit-identical to the policy-aware Oracle.
func TestServedWithPolicyMatchesOracle(t *testing.T) {
	cfg := testConfig(t)
	cfg.ProtectPolicy = testPolicy()
	srv := newTestServer(t, cfg)
	prompts := testPrompts(t, 5)
	const maxTokens = 14

	st := srv.RunLoad(context.Background(), LoadSpec{
		Clients: 6, Requests: 10, MaxTokens: maxTokens,
		Protected: true, PromptFor: prompts,
	})
	if st.Failed > 0 {
		t.Fatalf("%d requests failed: %v", st.Failed, st.Errs)
	}
	for i, res := range st.Results {
		want, _, err := Oracle(srv.Config(), prompts(i), maxTokens, true)
		if err != nil {
			t.Fatal(err)
		}
		if !equalTokens(res.Tokens, want) {
			t.Fatalf("request %d: served %v != policy oracle %v", i, res.Tokens, want)
		}
	}
}

// A policy derived for another model family (OPT's FC1/FC2 on a Llama-family
// model) would leave the family's own MLP kinds unprotected while serving
// "protected" requests: the server must refuse to start, naming the kind.
func TestPolicyForWrongFamilyRejected(t *testing.T) {
	cfg := testConfig(t)
	cfg.ProtectPolicy = &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.VProj: protect.TierFT2, model.FC1: protect.TierFT2, model.FC2: protect.TierABFTFT2,
	}}
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "FC1") {
		t.Fatalf("New with an OPT-derived policy on %s: err = %v, want one naming FC1", cfg.Model, err)
	}
}

// TestChaosControlSessionsBitIdentical is the blast-radius contract — and,
// under -race, the chaos/decode synchronization witness: batched sessions
// decode while the chaos engine mutates weights and KV slabs at slice
// boundaries, and every session that did NOT opt in must still match the
// oracle bit for bit. Victim traffic shares the same groups the whole time.
func TestChaosControlSessionsBitIdentical(t *testing.T) {
	for _, regime := range []struct {
		name string
		with func(*Config)
	}{
		{"uniform", func(*Config) {}},
		// A prefix shared through the cache must never carry a victim's
		// corruption into a control session that forks it: victims alone
		// insert entries first (and are corrupted after), then controls with
		// the same prompts fork them.
		{"prefix-cache", func(c *Config) { c.PrefixCacheMB, c.PrefillChunk = 8, 4 }},
		// Hybrid controllers (abft, dmr tiers) parked and resumed under fire.
		{"policy", func(c *Config) { c.ProtectPolicy = testPolicy() }},
	} {
		t.Run(regime.name, func(t *testing.T) {
			cfg := chaosConfig(t, chaos.Config{
				Seed: 11, Rate: 1.5, Burst: 2,
				Mix: fault.TargetMix{Weight: 0.3, KV: 0.3},
			})
			cfg.Replicas = 2
			cfg.BatchMax = 4
			regime.with(&cfg)
			srv := newTestServer(t, cfg)
			// Five prompts against the victims' parity: every prompt is asked
			// by victims and by controls.
			const nPrompts, requests, maxTokens = 5, 16, 12
			prompts := testPrompts(t, nPrompts)

			// byVictim[p]: the cache holds prompt p whole, inserted by a victim.
			var byVictim [nPrompts]bool
			if cfg.PrefixCacheMB > 0 {
				st := srv.RunLoad(context.Background(), LoadSpec{
					Clients: 2, Requests: nPrompts, MaxTokens: maxTokens,
					Protected: true, PromptFor: prompts, ChaosFor: func(int) bool { return true },
				})
				if st.Failed > 0 {
					t.Fatalf("%d victim requests failed: %v", st.Failed, st.Errs)
				}
				for p := range byVictim {
					byVictim[p] = srv.sch.prefix.Depth(prompts(p), true) == len(prompts(p))-1
				}
				if byVictim == [nPrompts]bool{} {
					t.Fatal("no victim inserted its prompt — the cache row is vacuous")
				}
			}

			victim := func(i int) bool { return i%2 == 1 }
			st := srv.RunLoad(context.Background(), LoadSpec{
				Clients: 8, Requests: requests, MaxTokens: maxTokens,
				Protected: true, PromptFor: prompts, ChaosFor: victim,
			})
			if st.Failed > 0 {
				t.Fatalf("%d requests failed: %v", st.Failed, st.Errs)
			}
			forkedVictimEntry := 0
			for i, res := range st.Results {
				if victim(i) {
					continue // victims may legitimately diverge — that's the point
				}
				want, _, err := Oracle(srv.Config(), prompts(i), maxTokens, true)
				if err != nil {
					t.Fatal(err)
				}
				if !equalTokens(res.Tokens, want) {
					t.Fatalf("control request %d diverged under chaos: %v != %v", i, res.Tokens, want)
				}
				if byVictim[i%nPrompts] && res.CachedPromptRows == len(prompts(i))-1 {
					forkedVictimEntry++
				}
			}
			if srv.Chaos().Counters().Injected() == 0 {
				t.Fatal("chaos engine never injected — the control assertion is vacuous")
			}
			if ps := srv.PrefixStats(); cfg.PrefixCacheMB > 0 && (forkedVictimEntry == 0 || ps.Evictions > 0) {
				t.Fatalf("no control session forked an entry a victim inserted (%d evictions) — the cache row is vacuous", ps.Evictions)
			}
			// Weight faults may appear whenever a slice group happened to be
			// all-victims; control integrity above is the invariant that matters —
			// the scrub cleans the replica before any control session can batch
			// onto it. Every journaled injection must name a session or replica.
			for _, ev := range srv.Chaos().Events() {
				if ev.Kind == chaos.EvInject && ev.Target != "weight" && ev.Session == 0 {
					t.Fatalf("session-scoped injection without a session id: %+v", ev)
				}
			}
		})
	}
}

// TestChaosWeightCorruptionRebuildsReplica drives all-victim traffic with a
// weight-only fault stream: every planned fault lands in replica weights,
// the end-of-slice scrub must confirm the corruption against the build-time
// checksum, and the replica must be rebuilt — while the load keeps being
// served to completion. The journal must show the full
// inject → scrub-detect → rebuild chain.
func TestChaosWeightCorruptionRebuildsReplica(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	cfg := chaosConfig(t, chaos.Config{
		Seed: 5, Rate: 1, Mix: fault.TargetMix{Weight: 1}, Journal: path,
	})
	srv := newTestServer(t, cfg)
	prompts := testPrompts(t, 4)

	st := srv.RunLoad(context.Background(), LoadSpec{
		Clients: 4, Requests: 8, MaxTokens: 10,
		Protected: true, PromptFor: prompts,
		ChaosFor: func(int) bool { return true },
	})
	if st.Failed > 0 {
		t.Fatalf("%d requests failed under weight chaos: %v", st.Failed, st.Errs)
	}

	c := srv.Chaos().Counters()
	if c.InjectedWeight == 0 {
		t.Fatal("no weight faults injected")
	}
	if c.ScrubDetected == 0 || c.Rebuilds == 0 {
		t.Fatalf("weight corruption not detected/recovered: %+v", c)
	}
	if got := srv.mx.rebuilds.Load(); got < c.Rebuilds {
		t.Fatalf("metrics count %d rebuilds, journal %d", got, c.Rebuilds)
	}
	if got := srv.mx.sdcSuspect.Load(); got == 0 {
		t.Fatal("no session marked SDC-suspect despite weight corruption on its group")
	}

	// Every injection and recovery action must be on disk after Shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), 10e9)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev chaos.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind]++
	}
	if int64(kinds[chaos.EvInject]) != c.Injected() {
		t.Fatalf("journal has %d injects, counters say %d", kinds[chaos.EvInject], c.Injected())
	}
	if kinds[chaos.EvScrubDetect] == 0 || kinds[chaos.EvRebuild] != kinds[chaos.EvScrubDetect] {
		t.Fatalf("journal missing recovery chain, or a confirmed corruption without its rebuild: %v", kinds)
	}
}

// TestChaosMetricsEndpoint checks the /metrics surface grows the chaos and
// adaptive-protection counters.
func TestChaosMetricsEndpoint(t *testing.T) {
	cfg := chaosConfig(t, chaos.Config{Seed: 3, Rate: 2, Mix: fault.TargetMix{KV: 0.5}})
	cfg.ProtectPolicy = testPolicy()
	srv := newTestServer(t, cfg)
	prompts := testPrompts(t, 3)

	// The policy has abft and dmr tiers, so their series exist — as zeros —
	// before the first detection, not from it.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		"ft2serve_abft_total{type=\"detected\"} 0\n",
		"ft2serve_abft_total{type=\"corrected\"} 0\n",
		"ft2serve_abft_total{type=\"uncorrectable\"} 0\n",
		"ft2serve_dmr_corrections_total 0\n",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("idle metrics missing %q", want)
		}
	}

	st := srv.RunLoad(context.Background(), LoadSpec{
		Clients: 4, Requests: 6, MaxTokens: 8,
		Protected: true, PromptFor: prompts,
		ChaosFor: func(int) bool { return true },
	})
	if st.Failed > 0 {
		t.Fatalf("%d requests failed: %v", st.Failed, st.Errs)
	}

	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"ft2serve_abft_total{type=\"detected\"}",
		"ft2serve_dmr_corrections_total",
		"ft2serve_chaos_injected_total{target=\"activation\"}",
		"ft2serve_chaos_injected_total{target=\"weight\"}",
		"ft2serve_chaos_injected_total{target=\"kv\"}",
		"ft2serve_chaos_scrub_detected_total",
		"ft2serve_chaos_sdc_suspect_sessions_total",
		"ft2serve_replica_rebuilds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if srv.Chaos().Counters().InjectedKV == 0 {
		t.Fatal("kv chaos never fired — metric values untested")
	}
	if srv.mx.sdcSuspect.Load() == 0 {
		t.Fatal("no suspect sessions recorded")
	}
}

// TestChaosVictimStepAllocFree pins the steady-state cost of carrying a
// chaos victim: the victim's hook list (injector first, controller second)
// is assembled once per slice into group-owned storage, so a fused decode
// step with a protected victim in the group allocates nothing. The scheduler
// is built without its goroutines so the test owns the replica and can drive
// single steps of the real slice loop.
func TestChaosVictimStepAllocFree(t *testing.T) {
	const n = 3
	sch, _ := bareScheduler(t, chaosConfig(t, chaos.Config{Seed: 5, Rate: 6}), n,
		Request{MaxTokens: 200, Protected: true, Chaos: true})
	p := sch.pool

	// Slice 1 prefills (mid-prefill sessions are never victims); slice 2
	// plans activation faults onto the now-decoding sessions.
	g := &group{}
	r := sch.runSlice(p.replicas[0], g, <-sch.ready)
	r = sch.runSlice(r, g, <-sch.ready)
	victims := 0
	for i, s := range g.sessions {
		if s == nil {
			t.Fatalf("session %d settled early", i)
		}
		if s.req.Protected && len(g.hooks[i]) >= 2 {
			victims++
		}
	}
	if victims == 0 {
		t.Fatal("chaos planned no activation fault on a protected session; raise Rate")
	}

	// Every fusedSlice call re-enqueues its survivors; the test keeps driving
	// the same group, so it empties the ring instead of gathering from it.
	drain := func() {
		for len(sch.ready) > 0 {
			<-sch.ready
		}
	}
	step := func() {
		for i := range g.rem {
			g.rem[i] = 1
		}
		if err := sch.fusedSlice(r, g); err != nil {
			t.Fatal(err)
		}
		drain()
	}
	drain()
	step()
	if avg := testing.AllocsPerRun(20, step); avg != 0 {
		t.Fatalf("fused decode step with %d chaos victims in the group allocates %.1f objects, want 0", victims, avg)
	}
}
