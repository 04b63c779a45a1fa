package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/data"
	"ft2/internal/prefixcache"
	"ft2/internal/tensor"
)

// testConfig serves the smallest zoo model with one replica and enough
// session slots to force time-slicing — the regime where every
// park/restore bug shows.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Model:       "qwen2-1.5b-sim",
		Seed:        7,
		Replicas:    1,
		MaxSessions: 8,
		SliceSteps:  3,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func testPrompts(t *testing.T, n int) func(int) []int {
	t.Helper()
	ds, err := data.ByName("squad-sim", n)
	if err != nil {
		t.Fatal(err)
	}
	return func(i int) []int { return ds.Inputs[i%n].Prompt }
}

// bareScheduler builds a scheduler without its dispatch and worker
// goroutines and admits n sessions of req (prompt i from testPrompts)
// straight onto the ready ring, so a test owns the replica and drives
// runSlice itself — every session is in one group by construction.
func bareScheduler(t *testing.T, cfg Config, n int, req Request) (*scheduler, []*Session) {
	t.Helper()
	prompts := testPrompts(t, n)
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = req
		reqs[i].PromptTokens = prompts(i)
	}
	return bareSchedulerOf(t, cfg, reqs)
}

// bareSchedulerOf is bareScheduler over explicit requests, each carrying its
// prompt as PromptTokens; the ring holds them in order.
func bareSchedulerOf(t *testing.T, cfg Config, reqs []Request) (*scheduler, []*Session) {
	t.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(reqs)
	sch := &scheduler{cfg: cfg, pool: p, mx: newMetrics(),
		admit: make(chan *Session, n), ready: make(chan *Session, n), slots: make(chan struct{}, n),
		sessions: make(map[*Session]struct{}), exports: make(map[string]exportEntry)}
	if cfg.Chaos != nil {
		if sch.chaos, err = chaos.NewEngine(*cfg.Chaos, cfg.ModelCfg); err != nil {
			t.Fatal(err)
		}
	}
	if cfg.PrefixCacheMB > 0 {
		sch.prefix = prefixcache.New(int64(cfg.PrefixCacheMB) << 20)
	}
	sessions := make([]*Session, n)
	for i, req := range reqs {
		if sessions[i], err = sch.submit(context.Background(), req, req.PromptTokens); err != nil {
			t.Fatal(err)
		}
		sch.slots <- struct{}{}
		sch.ready <- <-sch.admit
	}
	return sch, sessions
}

func equalTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServedMatchesOracle is the core contract: a generation served through
// the continuous-batching scheduler — sliced, parked, and resumed across
// many concurrent sessions on one replica — is bit-identical to the same
// generation run start-to-finish by GenerateInto, correction counters
// included.
func TestServedMatchesOracle(t *testing.T) {
	cfg := testConfig(t)
	srv := newTestServer(t, cfg)
	prompts := testPrompts(t, 6)
	const maxTokens = 20

	// 8 clients over 12 requests, then the 1 / 4 / 16-client grid at two
	// requests per client: one client never shares a slice, sixteen overflow
	// the eight session slots into the admission queue.
	for _, load := range [][2]int{{8, 12}, {1, 2}, {4, 8}, {16, 32}} {
		for _, protected := range []bool{true, false} {
			st := srv.RunLoad(context.Background(), LoadSpec{
				Clients: load[0], Requests: load[1], MaxTokens: maxTokens,
				Protected: protected, PromptFor: prompts,
			})
			if st.Failed > 0 {
				t.Fatalf("clients=%d protected=%v: %d requests failed: %v", load[0], protected, st.Failed, st.Errs)
			}
			for i, res := range st.Results {
				want, corr, err := Oracle(srv.Config(), prompts(i), maxTokens, protected)
				if err != nil {
					t.Fatal(err)
				}
				if !equalTokens(res.Tokens, want) {
					t.Fatalf("clients=%d protected=%v request %d: served %v != oracle %v", load[0], protected, i, res.Tokens, want)
				}
				if protected && (res.Corrections.OutOfBound != corr.OutOfBound ||
					res.Corrections.NaN != corr.NaN ||
					res.Corrections.FirstTokenNaN != corr.FirstTokenNaN) {
					t.Fatalf("clients=%d request %d: corrections %+v != oracle %+v", load[0], i, res.Corrections, corr)
				}
			}
		}
	}
}

// TestFusionIgnoresCostModel pins that a decode group is one ForwardBatch
// whatever the kernel cost model measured: with the m = 2–3 class at ten
// times the m = 1 cost per madd — a comparison start-up timing noise can
// produce, and one that must not pick the kernel shape — two sessions
// decoding in one group still stack their rows, bit-identical to the oracle.
func TestFusionIgnoresCostModel(t *testing.T) {
	prev := tensor.CurrentCostModel()
	defer tensor.SetCostModel(&prev)
	cm := tensor.DefaultCostModel()
	cm.SerialNsPerMadd[1] = 10 * cm.SerialNsPerMadd[0]
	tensor.SetCostModel(cm)

	cfg := testConfig(t)
	cfg.BatchMax = 2
	const maxTokens = 12
	sch, sessions := bareScheduler(t, cfg, 2, Request{MaxTokens: maxTokens, Protected: true})
	r, g := sch.pool.replicas[0], &group{}
	for len(sch.ready) > 0 {
		r = sch.runSlice(r, g, <-sch.ready)
	}

	if sch.mx.fusedForwards.Load() == 0 || sch.mx.fusedDecodeRows.Load() == 0 {
		t.Fatalf("two sessions decoding in one group were not fused: fused_forwards=%d fused_decode_rows=%d",
			sch.mx.fusedForwards.Load(), sch.mx.fusedDecodeRows.Load())
	}
	for i, s := range sessions {
		res, err := s.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := Oracle(sch.cfg, s.prompt, maxTokens, true)
		if err != nil {
			t.Fatal(err)
		}
		if !equalTokens(res.Tokens, want) {
			t.Fatalf("session %d: served %v != oracle %v", i, res.Tokens, want)
		}
	}
}

// TestBatchMaxSweep pins the fusion contract across batch widths: the same
// protected load served with BatchMax 1 (groups of one), 2, and 8
// produces bit-identical tokens — fusing sessions into one ForwardBatch call
// changes throughput, never results — and all match the GenerateInto oracle.
// The batched runs must also account every step in the batch metrics.
func TestBatchMaxSweep(t *testing.T) {
	prompts := testPrompts(t, 5)
	const requests, maxTokens = 10, 15

	run := func(batchMax int) [][]int {
		cfg := testConfig(t)
		cfg.BatchMax = batchMax
		srv := newTestServer(t, cfg)
		st := srv.RunLoad(context.Background(), LoadSpec{
			Clients: 8, Requests: requests, MaxTokens: maxTokens,
			Protected: true, PromptFor: prompts,
		})
		if st.Failed > 0 {
			t.Fatalf("batchMax=%d: %v", batchMax, st.Errs)
		}
		if steps := srv.mx.batchSteps.Load(); steps <= 0 {
			t.Fatalf("batchMax=%d: no batched steps accounted", batchMax)
		}
		out := make([][]int, requests)
		for i, r := range st.Results {
			out[i] = r.Tokens
		}
		return out
	}

	resolved, err := testConfig(t).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	serial := run(1)
	for i := range serial {
		want, _, err := Oracle(resolved, prompts(i), maxTokens, true)
		if err != nil {
			t.Fatal(err)
		}
		if !equalTokens(serial[i], want) {
			t.Fatalf("batchMax=1 request %d: %v != oracle %v", i, serial[i], want)
		}
	}
	for _, bm := range []int{2, 8} {
		batched := run(bm)
		for i := range serial {
			if !equalTokens(batched[i], serial[i]) {
				t.Fatalf("batchMax=%d request %d: %v != serial %v", bm, i, batched[i], serial[i])
			}
		}
	}
}

// TestContinuousBatching checks the defining property of the scheduler: a
// short request admitted while a long one is mid-flight finishes first,
// because sessions interleave in slices instead of running to completion.
func TestContinuousBatching(t *testing.T) {
	cfg := testConfig(t)
	cfg.StepDelay = 2 * time.Millisecond // slow decode enough to observe overlap
	srv := newTestServer(t, cfg)
	prompts := testPrompts(t, 2)

	long, err := srv.Submit(context.Background(), Request{
		PromptTokens: prompts(0), MaxTokens: 120,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Make sure the long request is already decoding before the short one
	// is admitted mid-flight.
	select {
	case <-long.Tokens():
	case <-time.After(10 * time.Second):
		t.Fatal("long request produced no token")
	}
	short, err := srv.Submit(context.Background(), Request{
		PromptTokens: prompts(1), MaxTokens: 5,
	})
	if err != nil {
		t.Fatal(err)
	}

	select {
	case <-short.Done():
	case <-long.Done():
		t.Fatal("the 120-token request finished before the 5-token one: no interleaving")
	case <-time.After(30 * time.Second):
		t.Fatal("timed out")
	}
	if _, err := short.Wait(context.Background()); err != nil {
		t.Fatalf("short request failed: %v", err)
	}
	if _, err := long.Wait(context.Background()); err != nil {
		t.Fatalf("long request failed: %v", err)
	}
}

// TestBackpressure fills the session slots and the admission queue with
// throttled requests and checks the next submit is rejected with 429
// rather than blocking or crashing.
func TestBackpressure(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxSessions = 2
	cfg.QueueDepth = 1
	cfg.StepDelay = 5 * time.Millisecond
	srv := newTestServer(t, cfg)
	prompts := testPrompts(t, 1)

	var sessions []*Session
	sawFull := false
	for i := 0; i < 12 && !sawFull; i++ {
		s, err := srv.Submit(context.Background(), Request{PromptTokens: prompts(0), MaxTokens: 60})
		switch {
		case err == nil:
			sessions = append(sessions, s)
		case errors.Is(err, ErrQueueFull):
			sawFull = true
			if got := errStatus(err); got != http.StatusTooManyRequests {
				t.Fatalf("ErrQueueFull status = %d, want 429", got)
			}
		default:
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Fatal("never hit ErrQueueFull with queue depth 1")
	}
	for _, s := range sessions {
		if _, err := s.Wait(context.Background()); err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
}

// TestRequestValidation drives every malformed-request class through Submit
// and checks each comes back as a 400-class error — not a panic — and that
// the server still serves afterwards.
func TestRequestValidation(t *testing.T) {
	srv := newTestServer(t, testConfig(t))
	prompts := testPrompts(t, 1)
	maxSeq := srv.Config().ModelCfg.MaxSeq
	vocab := srv.Config().ModelCfg.Vocab

	bad := []Request{
		{MaxTokens: 4}, // no prompt source
		{PromptTokens: prompts(0), Text: "also text", MaxTokens: 4}, // two sources
		{PromptTokens: []int{1, vocab + 5}, MaxTokens: 4},           // out-of-vocab token
		{PromptTokens: []int{1, -2}, MaxTokens: 4},                  // negative token
		{PromptTokens: prompts(0)},                                  // max_tokens 0
		{PromptTokens: prompts(0), MaxTokens: maxSeq},               // MaxSeq overflow
		{Dataset: "no-such-corpus", MaxTokens: 4},                   // unknown dataset
		{Dataset: "squad-sim", Input: 9999, MaxTokens: 4},           // input out of range
	}
	for i, req := range bad {
		if _, err := srv.Submit(context.Background(), req); err == nil {
			t.Fatalf("bad request %d admitted", i)
		} else if got := errStatus(err); got != http.StatusBadRequest {
			t.Fatalf("bad request %d: status %d, want 400 (%v)", i, got, err)
		}
	}

	s, err := srv.Submit(context.Background(), Request{PromptTokens: prompts(0), MaxTokens: 4})
	if err != nil {
		t.Fatalf("server broken after bad requests: %v", err)
	}
	if _, err := s.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDeadline checks a request whose deadline expires mid-generation
// settles with 504 and frees its slot.
func TestDeadline(t *testing.T) {
	cfg := testConfig(t)
	cfg.StepDelay = 10 * time.Millisecond
	srv := newTestServer(t, cfg)
	prompts := testPrompts(t, 1)

	s, err := srv.Submit(context.Background(), Request{
		PromptTokens: prompts(0), MaxTokens: 200, DeadlineMS: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Wait(context.Background())
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	// The slot must be free again: a fresh request still completes.
	s2, err := srv.Submit(context.Background(), Request{PromptTokens: prompts(0), MaxTokens: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDrain checks the shutdown sequence: draining rejects new
// submits with 503 while the in-flight request still completes normally,
// and Shutdown returns cleanly.
func TestGracefulDrain(t *testing.T) {
	cfg := testConfig(t)
	cfg.StepDelay = 2 * time.Millisecond
	srv := newTestServer(t, cfg)
	prompts := testPrompts(t, 1)

	inflight, err := srv.Submit(context.Background(), Request{PromptTokens: prompts(0), MaxTokens: 40})
	if err != nil {
		t.Fatal(err)
	}
	srv.BeginDrain()
	if _, err := srv.Submit(context.Background(), Request{PromptTokens: prompts(0), MaxTokens: 4}); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: want ErrDraining, got %v", err)
	}
	res, err := inflight.Wait(context.Background())
	if err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if len(res.Tokens) != 40 {
		t.Fatalf("in-flight request truncated: %d tokens", len(res.Tokens))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestHTTPEndpoints exercises the full HTTP surface end to end against a
// httptest server: generate (single and streaming), models, healthz,
// metrics.
func TestHTTPEndpoints(t *testing.T) {
	srv := newTestServer(t, testConfig(t))
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/generate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Single-document generate, text prompt, protected.
	resp := post(`{"text":"what city hosts the museum","max_tokens":8,"protected":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("generate: status %d", resp.StatusCode)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(res.Tokens) != 8 || !res.Protected || res.Text == "" {
		t.Fatalf("generate result: %+v", res)
	}

	// Streaming: NDJSON token lines then a done line with the result.
	resp = post(`{"text":"what city hosts the museum","max_tokens":5,"stream":true}`)
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	var lines []map[string]json.RawMessage
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	resp.Body.Close()
	if len(lines) != 6 {
		t.Fatalf("stream: %d lines, want 5 tokens + 1 done", len(lines))
	}
	if _, ok := lines[5]["done"]; !ok {
		t.Fatalf("stream: last line is not the done line: %v", lines[5])
	}

	// Bad request: JSON error with 400, server stays up.
	resp = post(`{"max_tokens":0}`)
	if resp.StatusCode != 400 {
		t.Fatalf("bad generate: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Models.
	resp, err := http.Get(hs.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var models struct {
		Serving string `json:"serving"`
		Models  []struct {
			Name    string `json:"name"`
			Serving bool   `json:"serving"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if models.Serving != "qwen2-1.5b-sim" || len(models.Models) < 7 {
		t.Fatalf("models: %+v", models)
	}

	// Healthz then metrics.
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"ft2serve_uptime_seconds",
		`ft2serve_model{name="qwen2-1.5b-sim"} 1`,
		`ft2serve_requests_total{code="200"} 2`,
		`ft2serve_requests_total{code="400"} 1`,
		"ft2serve_tokens_generated_total 13",
		"ft2serve_tokens_per_sec",
		`ft2serve_token_latency_ms{quantile="0.5"}`,
		`ft2serve_token_latency_ms{quantile="0.99"}`,
		"ft2serve_draining 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
	// No policy loaded, so no exact-repair tier: its series must not exist.
	for _, absent := range []string{"ft2serve_abft_total", "ft2serve_dmr_corrections_total"} {
		if strings.Contains(buf.String(), absent) {
			t.Fatalf("metrics export %q without an abft/dmr tier", absent)
		}
	}

	// Drain flips healthz to 503.
	srv.BeginDrain()
	resp, err = http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v %d, want 503", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestConcurrentLoadAcrossReplicas runs a protected load over several
// replicas concurrently and re-checks determinism against a single-client
// run — same requests, same outputs, regardless of scheduling.
func TestConcurrentLoadAcrossReplicas(t *testing.T) {
	cfg := testConfig(t)
	cfg.Replicas = 2
	cfg.MaxSessions = 6
	prompts := testPrompts(t, 4)
	const requests, maxTokens = 8, 12

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
	concurrent := run(6)
	for i := range sequential {
		if !equalTokens(sequential[i], concurrent[i]) {
			t.Fatalf("request %d: concurrent %v != sequential %v", i, concurrent[i], sequential[i])
		}
	}
}
