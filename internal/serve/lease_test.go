package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/prefixcache"
	"ft2/internal/wire"
)

// TestKVGaugesConserved drives a session's KV state down every path it can
// take — a cold prefill and a prefix-cache hit, bare and protected, chaos KV
// faults, export fetches, an import and a spill resume, a session that
// expires in the queue before it obtains a state, a client cancel
// mid-decode — and holds the KV gauges to the state pool exactly: once every
// session settled, and again after Shutdown, nothing is filled, the reserved
// bytes are the pooled states' pitches, no state sits in the pool twice
// (every lease was recycled once) and no prefix-cache Ref is still held.
// Shutdown empties the prefix cache: no KV row and no trail record stays
// charged.
func TestKVGaugesConserved(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 2
	cfg.PrefixCacheMB = 8
	cfg.ExportStride = 2
	cfg.SpillDir = t.TempDir()
	cfg.StepDelay = time.Millisecond
	cfg.Chaos = &chaos.Config{Seed: 5, Rate: 1, Mix: fault.TargetMix{KV: 1}}
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sch, prompt, ctx := srv.sch, testPrompts(t, 1)(0), context.Background()
	var sessions []*Session
	submit := func(sctx context.Context, req Request) *Session {
		t.Helper()
		s, err := srv.Submit(sctx, req)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		return s
	}
	wait := func(s *Session) Result {
		t.Helper()
		res, err := s.Wait(ctx)
		if err != nil {
			t.Fatalf("session %q: %v", s.req.SessionID, err)
		}
		return res
	}

	// A cold bare prefill, then a protected chaos session that hits its
	// entry; both spill.
	wait(submit(ctx, Request{PromptTokens: prompt, MaxTokens: 8, SessionID: "cold"}))
	if res := wait(submit(ctx, Request{PromptTokens: prompt, MaxTokens: 8, Protected: true, Chaos: true, SessionID: "hit"})); res.CachedPromptRows == 0 {
		t.Fatal("the second session missed the prefix cache")
	}
	if sch.chaos.Counters().InjectedKV == 0 {
		t.Fatal("no chaos KV fault landed")
	}

	// A spill resume, and an import of the other session's spilled state.
	wait(submit(ctx, Request{Resume: true, SessionID: "cold", MaxTokens: 4}))
	blob, err := readSpill(cfg.SpillDir, "hit")
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := wire.DecodeSessionFor(blob, srv.Config().ModelCfg)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(ImportRequest{SessionID: "imported", MaxTokensTotal: snap.NextStep() + 4, Snapshot: blob})
	resp, err := http.Post(ts.URL+"/v1/sessions/import", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if toks, _, ierr := readStream(t, resp.Body); resp.StatusCode != http.StatusOK || ierr != "" || len(toks) != 4 {
		t.Fatalf("import: %d, %d tokens, %q", resp.StatusCode, len(toks), ierr)
	}
	resp.Body.Close()

	// Both slots taken — one session the client abandons mid-decode, one
	// exporting protected chaos session fetched while it runs — and a third
	// session that expires in the queue behind them.
	actx, abandon := context.WithCancel(ctx)
	defer abandon()
	a := submit(actx, Request{PromptTokens: prompt, MaxTokens: 64, Protected: true, SessionID: "abandoned"})
	b := submit(ctx, Request{PromptTokens: prompt, MaxTokens: 48, Protected: true, Chaos: true, SessionID: "exported"})
	<-a.Tokens()
	expired := submit(ctx, Request{PromptTokens: prompt, MaxTokens: 8, DeadlineMS: 1})
	for fetched := false; !fetched; {
		select {
		case <-b.Done():
			t.Fatal("the exporting session finished before a fetch found its checkpoint")
		default:
		}
		resp, err := http.Get(ts.URL + "/v1/sessions/export?id=exported")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		fetched = resp.StatusCode == http.StatusOK
	}
	time.Sleep(5 * time.Millisecond) // past the queued session's deadline
	abandon()
	if _, err := a.Wait(ctx); errStatus(err) != statusClientClosed {
		t.Fatalf("abandoned session: %v, want a client-closed error", err)
	}
	wait(b)
	if res, err := expired.Wait(ctx); !errors.Is(err, ErrDeadline) || res.GenMS != 0 || len(res.Tokens) != 0 {
		t.Fatalf("queued session: %v, %.2f ms generating, %d tokens; want a deadline before any state", err, res.GenMS, len(res.Tokens))
	}
	// Every session a slice opened observed its queue latency once: those
	// submitted but the expired one, and the import — as many as submitted.
	if n, opened := histCount(sch.mx.queueLat), int64(len(sessions)); n != opened {
		t.Fatalf("%d queue-latency observations, want %d: the expired session was opened", n, opened)
	}

	// conserved drains the state pool and holds the gauges to it.
	conserved := func(when string) []*model.DecodeState {
		t.Helper()
		var pooled []*model.DecodeState
		seen := map[*model.DecodeState]bool{}
		var want int64
		for len(sch.states) > 0 {
			st := <-sch.states
			if seen[st] {
				t.Fatalf("%s: a state sits in the pool twice", when)
			}
			seen[st] = true
			_, pitch := st.KVOwn()
			want += int64(pitch) * sch.kvRowBytes
			pooled = append(pooled, st)
		}
		if len(pooled) == 0 {
			t.Fatalf("%s: no state was recycled", when)
		}
		if reserved, filled := sch.mx.kvReserved.Load(), sch.mx.kvFilled.Load(); reserved != want || filled != 0 {
			t.Fatalf("%s: gauges reserved %d filled %d; want the %d pooled states' %d and 0",
				when, reserved, filled, len(pooled), want)
		}
		if held := sch.prefix.Stats().Held; held != 0 {
			t.Fatalf("%s: %d prefix-cache Refs still held", when, held)
		}
		return pooled
	}
	if ps := sch.prefix.Stats(); ps.TrailBytes == 0 {
		t.Fatal("the cold prefill's entry holds no bounds-trail records")
	}
	// A settled session recycles its lease before it frees its slot.
	for _, s := range sessions {
		<-s.Done()
	}
	for deadline := time.Now().Add(10 * time.Second); sch.activeSessions() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("sessions done, slots still held")
		}
	}
	for _, st := range conserved("every session settled") {
		sch.states <- st
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	conserved("after Shutdown")
	if ps := sch.prefix.Stats(); ps.Entries != 0 || ps.Bytes != 0 || ps.TrailBytes != 0 {
		t.Fatalf("after Shutdown: prefix cache holds %d entries, %d KV bytes, %d trail bytes; want 0", ps.Entries, ps.Bytes, ps.TrailBytes)
	}
}

// TestEvictedBorrowedEntryCollected: a prefix-cache entry evicted while a
// session borrows its rows lives exactly as long as the session. While the
// session decodes, a GC does not collect it; once the session settled and
// the server is idle, it is collected — recycle released the Ref, and Reset
// ended the pooled state's borrow.
func TestEvictedBorrowedEntryCollected(t *testing.T) {
	cfg := testConfig(t)
	cfg.PrefixCacheMB = 1                 // 1024 rows of this model
	cfg.StepDelay = 10 * time.Millisecond // the session outlives the evictions below
	srv := newTestServer(t, cfg)
	sch, ctx := srv.sch, context.Background()
	p := sch.pool
	r := p.rebuild(0)
	base := testPrompts(t, 1)(0)
	promptOf := func(i, n int) []int { // base's first token, then tokens of i's own
		out := slices.Clone(base[:1])
		for len(out) < n {
			out = append(out, 4+(i*7+len(out))%(r.m.Cfg.Vocab-4))
		}
		return out
	}
	insert := func(prompt []int) *model.Snapshot {
		r.m.Prefill(prompt)
		snap := &model.Snapshot{}
		r.m.Checkpoint(snap)
		if !sch.prefix.Insert(prompt, snap, nil, true) {
			t.Fatalf("a %d-row entry was not admitted", len(prompt))
		}
		return snap
	}

	borrowed := promptOf(0, 200)
	entry := insert(borrowed)
	collected := make(chan struct{})
	runtime.SetFinalizer(entry, func(*model.Snapshot) { close(collected) })
	entry = nil
	s, err := srv.Submit(ctx, Request{PromptTokens: borrowed, MaxTokens: 48})
	if err != nil {
		t.Fatal(err)
	}
	<-s.Tokens() // the session borrows the entry now

	// Three more entries held here and a fourth past the budget: every other
	// candidate is held, so the least recently used one — the borrowed
	// entry — is evicted.
	var held []*prefixcache.Ref
	for i := 1; i <= 3; i++ {
		insert(promptOf(i, 250))
		held = append(held, sch.prefix.Lookup(promptOf(i, 250), false))
	}
	insert(promptOf(4, 250))
	for _, ref := range held {
		ref.Release()
	}
	if depth := sch.prefix.Depth(borrowed, false); depth == len(borrowed)-1 {
		t.Fatal("the borrowed entry was not evicted")
	}
	runtime.GC()
	select {
	case <-collected:
		select {
		case <-s.Done(): // settled already: nothing to conclude
		default:
			t.Fatal("an entry a live session borrows was collected")
		}
	default:
	}

	res, err := s.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.CachedPromptRows != len(borrowed)-1 {
		t.Fatalf("the session resumed %d cached rows, want %d", res.CachedPromptRows, len(borrowed)-1)
	}
	s = nil
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("an evicted entry is still reachable after the session borrowing it settled")
}
