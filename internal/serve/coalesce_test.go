package serve

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/data"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/prefixcache"
	"ft2/internal/tensor"
)

// A herd is what a cold server sees after a start or an eviction: herdN
// sessions arriving together whose herdLen-token prompts share their first
// herdShared tokens — the shape of bench/'s serve_shared_prefix warm-up.
const herdN, herdLen, herdShared, herdOwn = 8, 176, 160, 176 - 160

// herdConfig is testConfig plus the prefix cache at its default 64-row grain.
func herdConfig(t *testing.T) Config {
	cfg := testConfig(t)
	cfg.PrefixCacheMB = 8
	return cfg
}

// herdRequests returns herdN copies of req over prompts that pairwise share
// exactly herdShared tokens, so every row count below is exact.
func herdRequests(t *testing.T, req Request) []Request {
	t.Helper()
	prompts := data.SharedPrefixPrompts(herdN, herdLen, (herdShared+0.5)/herdLen, 5)
	reqs := make([]Request, herdN)
	for i, p := range prompts {
		for _, q := range prompts[:i] {
			if n := prefixcache.MatchLen(p, q); n != herdShared {
				t.Fatalf("herd prompts share %d tokens, want exactly %d: pick another seed", n, herdShared)
			}
		}
		reqs[i] = req
		reqs[i].PromptTokens = p
	}
	return reqs
}

// herdRun is the outcome of one herd on one cold scheduler.
type herdRun struct {
	cfg       Config   // effective
	results   []Result // by request
	errs      []error
	prefill   int64 // prompt rows computed
	coalesced int64 // sessions that parked
}

// driveBare runs a bareScheduler's ring dry on replica 0.
func driveBare(sch *scheduler, r *replica) *replica {
	g := &group{}
	for len(sch.ready) > 0 {
		r = sch.runSlice(r, g, <-sch.ready)
	}
	return r
}

// collect waits for every session and then reads the counters.
func collect(sch *scheduler, sessions []*Session) herdRun {
	run := herdRun{cfg: sch.cfg, results: make([]Result, len(sessions)), errs: make([]error, len(sessions))}
	for i, s := range sessions {
		run.results[i], run.errs[i] = s.Wait(context.Background())
	}
	run.prefill, run.coalesced = sch.mx.prefillTokens.Load(), sch.mx.coalesced.Load()
	return run
}

// herdOnBare drives reqs through one group of a bareScheduler.
func herdOnBare(t *testing.T, cfg Config, reqs []Request) herdRun {
	t.Helper()
	sch, sessions := bareSchedulerOf(t, cfg, reqs)
	driveBare(sch, sch.pool.replicas[0])
	return collect(sch, sessions)
}

// herdOnServer submits reqs together to a fresh server with its real
// dispatcher and workers.
func herdOnServer(replicas int) func(*testing.T, Config, []Request) herdRun {
	return func(t *testing.T, cfg Config, reqs []Request) herdRun {
		t.Helper()
		cfg.Replicas = replicas
		srv := newTestServer(t, cfg)
		sessions := make([]*Session, len(reqs))
		for i, req := range reqs {
			var err error
			if sessions[i], err = srv.Submit(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		return collect(srv.sch, sessions)
	}
}

// oracleMemo checks results against the GenerateInto oracle, computing each
// (prompt, protected) answer once per test.
type oracleMemo map[string]Result

func (m oracleMemo) check(t *testing.T, run herdRun, reqs []Request, which ...int) {
	t.Helper()
	if len(which) == 0 {
		for i := range reqs {
			which = append(which, i)
		}
	}
	for _, i := range which {
		req, res := reqs[i], run.results[i]
		if run.errs[i] != nil {
			t.Fatalf("request %d failed: %v", i, run.errs[i])
		}
		key := fmt.Sprint(req.PromptTokens, req.MaxTokens, req.Protected)
		want, ok := m[key]
		if !ok {
			toks, corr, err := Oracle(run.cfg, req.PromptTokens, req.MaxTokens, req.Protected)
			if err != nil {
				t.Fatal(err)
			}
			want = Result{Tokens: toks, Corrections: corr}
			m[key] = want
		}
		if !equalTokens(res.Tokens, want.Tokens) {
			t.Fatalf("request %d: served %v != oracle %v", i, res.Tokens, want.Tokens)
		}
		if got, want := res.Corrections, want.Corrections; got.OutOfBound != want.OutOfBound ||
			got.NaN != want.NaN || got.FirstTokenNaN != want.FirstTokenNaN {
			t.Fatalf("request %d: corrections %+v != oracle %+v", i, got, want)
		}
	}
}

// resumedAt counts the results that resumed their prompt at each cached depth.
func resumedAt(run herdRun, which ...int) map[int]int {
	depths := map[int]int{}
	for i, res := range run.results {
		if len(which) == 0 || slices.Contains(which, i) {
			depths[res.CachedPromptRows]++
		}
	}
	return depths
}

// waitFor polls cond — an atomic counter, never scheduler-owned state.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// herdFollowers indexes every request of a herd but the first.
var herdFollowers = []int{1, 2, 3, 4, 5, 6, 7}

// TestHerdPrefillsSharedPrefixOnce is the tentpole's count: a cold scheduler
// given eight sessions that share 160 of 176 prompt tokens computes the
// shared rows once — 176 + 7 × 16 prompt rows, not 8 × 176 — bare and
// protected, in one group of a bare scheduler and under the real dispatcher
// at one and two replicas, and every stream and correction count is still the
// oracle's.
func TestHerdPrefillsSharedPrefixOnce(t *testing.T) {
	memo := oracleMemo{}
	for _, protected := range []bool{false, true} {
		reqs := herdRequests(t, Request{MaxTokens: 6, Protected: protected})
		for _, on := range []struct {
			name string
			run  func(*testing.T, Config, []Request) herdRun
		}{
			{"bare-scheduler", herdOnBare},
			{"replicas-1", herdOnServer(1)},
			{"replicas-2", herdOnServer(2)},
		} {
			t.Run(fmt.Sprintf("protected=%v/%s", protected, on.name), func(t *testing.T) {
				run := on.run(t, herdConfig(t), reqs)
				memo.check(t, run, reqs)
				if want := int64(herdLen + (herdN-1)*herdOwn); run.prefill != want {
					t.Fatalf("herd computed %d prompt rows, want %d (of %d prompt tokens)", run.prefill, want, herdN*herdLen)
				}
				if d := resumedAt(run); d[0] != 1 || d[herdShared] != herdN-1 {
					t.Fatalf("cached_prompt_rows by depth = %v, want one cold session and %d at %d", d, herdN-1, herdShared)
				}
				// Under the real dispatcher a session may arrive after the
				// leader's insert and simply hit; in one group all seven park.
				if on.name == "bare-scheduler" && run.coalesced != herdN-1 {
					t.Fatalf("%d sessions parked, want %d", run.coalesced, herdN-1)
				}
			})
		}
	}
}

// TestHerdIdenticalPrompts: eight sessions with the same prompt compute it
// once, plus the one final row each follower needs for its own readout.
func TestHerdIdenticalPrompts(t *testing.T) {
	memo := oracleMemo{}
	reqs := herdRequests(t, Request{MaxTokens: 6, Protected: true})
	for i := range reqs {
		reqs[i].PromptTokens = reqs[0].PromptTokens
	}
	for name, on := range map[string]func(*testing.T, Config, []Request) herdRun{
		"bare-scheduler": herdOnBare, "replicas-2": herdOnServer(2),
	} {
		run := on(t, herdConfig(t), reqs)
		memo.check(t, run, reqs)
		if want := int64(herdLen + (herdN - 1)); run.prefill != want {
			t.Fatalf("%s: computed %d prompt rows, want %d", name, run.prefill, want)
		}
		if d := resumedAt(run); d[0] != 1 || d[herdLen-1] != herdN-1 {
			t.Fatalf("%s: cached_prompt_rows by depth = %v", name, d)
		}
	}
}

// TestHerdLeaderCancelled: a leader cancelled mid-prefill (a 4-row grain, so
// the prefill spans many slices) delivers no entry; its followers get their
// park back, so exactly one of them recomputes the prefix and the rest wait
// for that one — and all of them answer what the oracle answers.
func TestHerdLeaderCancelled(t *testing.T) {
	memo := oracleMemo{}
	reqs := herdRequests(t, Request{MaxTokens: 6, Protected: true})
	cfg := herdConfig(t)
	cfg.PrefillChunk = 4

	t.Run("bare-scheduler", func(t *testing.T) {
		sch, sessions := bareSchedulerOf(t, cfg, reqs)
		r := sch.runSlice(sch.pool.replicas[0], &group{}, <-sch.ready)
		if got := sch.mx.coalesced.Load(); got != herdN-1 || len(sch.ready) != 1 {
			t.Fatalf("after the leader's first slice: %d parked, %d on the ring", got, len(sch.ready))
		}
		firstSlice := sch.mx.prefillTokens.Load() // SliceSteps chunks of the leader's prompt
		sessions[0].cancel()
		driveBare(sch, r)
		run := collect(sch, sessions)
		if errStatus(run.errs[0]) != statusClientClosed {
			t.Fatalf("cancelled leader settled with %v", run.errs[0])
		}
		memo.check(t, run, reqs, herdFollowers...)
		if d := resumedAt(run, herdFollowers...); d[0] != 1 || d[herdShared] != herdN-2 {
			t.Fatalf("followers' cached_prompt_rows by depth = %v, want exactly one recomputing the prefix", d)
		}
		if want := firstSlice + herdLen + (herdN-2)*herdOwn; run.prefill != want {
			t.Fatalf("computed %d prompt rows, want %d", run.prefill, want)
		}
	})

	t.Run("replicas-2", func(t *testing.T) {
		cfg := cfg
		cfg.Replicas = 2
		cfg.StepDelay = time.Millisecond // 44 chunks: the cancel lands mid-prefill
		srv := newTestServer(t, cfg)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sessions := make([]*Session, len(reqs))
		for i, req := range reqs {
			c := context.Background()
			if i == 0 {
				c = ctx
			}
			var err error
			if sessions[i], err = srv.Submit(c, req); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "a follower to park", func() bool { return srv.mx.coalesced.Load() > 0 })
		if rows := srv.mx.prefillTokens.Load(); rows >= herdLen {
			t.Fatalf("leader's prefill done (%d rows) before the cancel: slow it down", rows)
		}
		cancel()
		run := collect(srv.sch, sessions)
		memo.check(t, run, reqs, herdFollowers...)
		if d := resumedAt(run, herdFollowers...); d[0] != 1 || d[herdShared] != herdN-2 {
			t.Fatalf("followers' cached_prompt_rows by depth = %v, want exactly one recomputing the prefix", d)
		}
	})
}

// TestHerdLeaderEntryUnusable: a leader may finish and still leave nothing a
// follower can fork. A protected leader whose first token corrected a NaN
// inserts an entry that serves protected sessions only: its bare followers
// wake, miss and compute for themselves. A leader that turned suspect
// mid-prefill inserts nothing at all: its followers are released to elect a
// leader of their own. Slower both times, never wrong.
func TestHerdLeaderEntryUnusable(t *testing.T) {
	memo := oracleMemo{}
	t.Run("first-token-nan", func(t *testing.T) {
		reqs := herdRequests(t, Request{MaxTokens: 6})
		reqs[0].Protected = true
		sch, sessions := bareSchedulerOf(t, herdConfig(t), reqs)
		r := sch.pool.replicas[0]
		r.controller(0) // the leader is alone in its group: slot 0 protects it
		protectHook := r.hookFns[0]
		r.hookFns[0] = func(ctx model.HookCtx, out *tensor.Tensor) {
			if ctx.FirstToken && ctx.Pos == 0 && ctx.Layer == (model.LayerRef{Kind: model.VProj}) {
				out.Data[0] = float32(math.NaN())
			}
			protectHook(ctx, out)
		}
		driveBare(sch, r)
		run := collect(sch, sessions)
		if run.errs[0] != nil || run.results[0].Corrections.FirstTokenNaN == 0 {
			t.Fatalf("leader corrected no first-token NaN (%v): its entry would serve bare sessions", run.errs[0])
		}
		memo.check(t, run, reqs, herdFollowers...)
		if d := resumedAt(run, herdFollowers...); d[0] != herdN-1 || run.coalesced != herdN-1 {
			t.Fatalf("bare followers of a NaN-corrected prefill: %d parked, cached_prompt_rows by depth = %v", run.coalesced, d)
		}
	})

	t.Run("suspect", func(t *testing.T) {
		reqs := herdRequests(t, Request{MaxTokens: 6, Protected: true})
		cfg := herdConfig(t)
		cfg.PrefillChunk = 4
		sch, sessions := bareSchedulerOf(t, cfg, reqs)
		r := sch.runSlice(sch.pool.replicas[0], &group{}, <-sch.ready)
		sessions[0].suspect = true // what applyChaos does to a weight-faulted group
		driveBare(sch, r)
		run := collect(sch, sessions)
		memo.check(t, run, reqs) // nothing was corrupted, so the leader too
		if d := resumedAt(run, herdFollowers...); d[0] != 1 || d[herdShared] != herdN-2 {
			t.Fatalf("followers' cached_prompt_rows by depth = %v, want one new leader and %d hits", d, herdN-2)
		}
		if want := int64(2*herdLen + (herdN-2)*herdOwn); run.prefill != want {
			t.Fatalf("computed %d prompt rows, want %d", run.prefill, want)
		}
		if got := sch.prefix.Stats().Insertions; got != herdN-1 {
			t.Fatalf("%d insertions, want %d: the suspect leader's prefill must not be offered", got, herdN-1)
		}
	})
}

// TestHerdNeverFollowsWrongLeader: a protected session needs the bounds trail
// a bare prefill does not record, and a control session must never wait on —
// or fork — a chaos victim's prefill. In both cases the second session leads
// a herd of its own (2 × 176 + 6 × 16 rows, six parked); the other way round
// everyone follows the first (176 + 7 × 16, seven parked).
func TestHerdNeverFollowsWrongLeader(t *testing.T) {
	memo := oracleMemo{}
	for _, tc := range []struct {
		name        string
		first, rest Request
		follows     bool
	}{
		{"protected-behind-bare", Request{}, Request{Protected: true}, false},
		{"bare-behind-protected", Request{Protected: true}, Request{}, true},
		{"control-behind-chaos", Request{Chaos: true}, Request{}, false},
		{"chaos-behind-control", Request{}, Request{Chaos: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.rest.MaxTokens = 6
			reqs := herdRequests(t, tc.rest)
			reqs[0].Protected, reqs[0].Chaos = tc.first.Protected, tc.first.Chaos
			run := herdOnBare(t, herdConfig(t), reqs) // no chaos engine: Chaos only labels
			memo.check(t, run, reqs)
			rows, parked, cold := int64(2*herdLen+(herdN-2)*herdOwn), int64(herdN-2), 1
			if tc.follows {
				rows, parked, cold = herdLen+(herdN-1)*herdOwn, herdN-1, 0
			}
			if d := resumedAt(run, herdFollowers...); run.prefill != rows || run.coalesced != parked || d[0] != cold {
				t.Fatalf("computed %d prompt rows with %d parked and %d cold followers, want %d, %d, %d",
					run.prefill, run.coalesced, d[0], rows, parked, cold)
			}
		})
	}
}

// TestHerdShutdownWhileParked: parked sessions hold no goroutine and no
// timer, so a Shutdown whose deadline expires while seven of them wait on a
// throttled leader still returns promptly — the forced cancel settles the
// leader, its settle releases them, and each settles at the ring — and the
// process is back to the goroutines it started with.
func TestHerdShutdownWhileParked(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := herdConfig(t)
	cfg.PrefillChunk = 4
	cfg.StepDelay = 5 * time.Millisecond // ≥ 220 ms of leader prefill
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sessions []*Session
	for _, req := range herdRequests(t, Request{MaxTokens: 6, Protected: true}) {
		s, err := srv.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	waitFor(t, "seven sessions to park", func() bool { return srv.mx.coalesced.Load() == herdN-1 })
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want the deadline: the leader cannot have finished", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("Shutdown with %d sessions parked took %v", herdN-1, took)
	}
	for i, s := range sessions {
		select {
		case <-s.Done():
		default:
			t.Fatalf("session %d not settled after Shutdown", i)
		}
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before New", runtime.NumGoroutine(), before)
		}
	}
}

// TestChaosSuspectPrefillNeverInserted pins the bugfix: a victim whose prompt
// rows are computed in a weight-faulted group — it joins a decoding victim,
// and with one weight arrival per slice the flip precedes every one of its
// chunks — is suspect, and a suspect prefill is never offered to the prefix
// cache, where a control session with the same prompt would fork KV computed
// on corrupted weights (chaos seed 27 answered [263 263 263 …] for the
// oracle's [279 142 15 …] before the fix).
func TestChaosSuspectPrefillNeverInserted(t *testing.T) {
	cfg := chaosConfig(t, chaos.Config{Seed: 27, Rate: 1, Mix: fault.TargetMix{Weight: 1}})
	cfg.PrefixCacheMB, cfg.PrefillChunk, cfg.SliceSteps = 8, 4, 2
	prompts := testPrompts(t, 2)
	reqs := []Request{
		{PromptTokens: prompts(0), MaxTokens: 40, Protected: true, Chaos: true}, // A: decoding victim
		{PromptTokens: prompts(1), MaxTokens: 4, Protected: true, Chaos: true},  // B: prefills beside A
		{PromptTokens: prompts(1), MaxTokens: 12, Protected: true},              // control, B's prompt
	}
	sch, sessions := bareSchedulerOf(t, cfg, reqs)
	a, b, control := <-sch.ready, <-sch.ready, <-sch.ready
	r, g := sch.pool.replicas[0], &group{}
	for sch.ready <- a; !a.started; {
		r = sch.runSlice(r, g, <-sch.ready)
	}
	inserted := sch.prefix.Stats().Insertions
	for sch.ready <- b; !b.started; { // A is on the ring: B joins its group
		r = sch.runSlice(r, g, <-sch.ready)
	}
	if !b.suspect || sch.chaos.Counters().InjectedWeight == 0 {
		t.Fatalf("B prefilled beside A without a weight fault (suspect %v): nothing to test", b.suspect)
	}
	if got := sch.prefix.Stats().Insertions; got != inserted {
		t.Fatalf("a suspect session's prefill was inserted into the prefix cache (%d → %d insertions)", inserted, got)
	}
	sch.ready <- control
	driveBare(sch, r)
	run := collect(sch, sessions)
	oracleMemo{}.check(t, run, reqs, 2)
}
