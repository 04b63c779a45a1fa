package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/tokenizer"
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

func testPrompts(t testing.TB, n int) func(int) []int {
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
func bareSchedulerOf(t testing.TB, cfg Config, reqs []Request) (*scheduler, []*Session) {
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
	cfg.QueueDepth, cfg.MaxSessions = n, n
	var eng *chaos.Engine
	if cfg.Chaos != nil {
		if eng, err = chaos.NewEngine(*cfg.Chaos, cfg.ModelCfg); err != nil {
			t.Fatal(err)
		}
	}
	sch := newScheduler(cfg, p, newMetrics(), eng)
	return sch, admitBare(t, sch, reqs)
}

// admitBare puts reqs on a bareScheduler's ring in order; at most as many
// sessions as the scheduler was built for may be unsettled at once.
func admitBare(t testing.TB, sch *scheduler, reqs []Request) []*Session {
	t.Helper()
	sessions := make([]*Session, len(reqs))
	for i, req := range reqs {
		var err error
		if sessions[i], err = sch.admitSession(context.Background(), req, req.PromptTokens, nil, nil); err != nil {
			t.Fatal(err)
		}
		sch.slots <- struct{}{}
		sch.ready <- <-sch.admit
	}
	return sessions
}

// pastFirstToken reports whether a session driven by hand has emitted its
// first token or settled: what a loop of runSlice calls waits on, which must
// end once the session settled, its state recycled.
func pastFirstToken(s *Session) bool {
	select {
	case <-s.done:
		return true
	default:
		return len(s.out) > 0
	}
}

// histCount is the number of observations h holds.
func histCount(h *Histogram) (n int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, c := range h.counts {
		n += c
	}
	return n
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
				if !reflect.DeepEqual(res.Corrections, corr) {
					t.Fatalf("clients=%d request %d: corrections %+v != oracle %+v", load[0], i, res.Corrections, corr)
				}
			}
		}
	}
}

// TestDecodeGroupIsOneForwardBatch pins that two sessions decoding in one
// group stack their rows into one ForwardBatch call, bit-identical to the
// oracle.
func TestDecodeGroupIsOneForwardBatch(t *testing.T) {
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

// checkBodyLimit posts path a body one JSON string longer than limit: the
// answer is a 413, and the worker still serves a generate after it.
func checkBodyLimit(t *testing.T, srv *Server, path, field string, limit int64) {
	post := func(path, body string) int {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}
	if code := post(path, `{"`+field+`":"`+strings.Repeat("A", int(limit))+`"}`); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("%s body over %d bytes: %d, want 413", path, limit, code)
	}
	if code := post("/v1/generate", `{"prompt_tokens":[4,5,6],"max_tokens":4}`); code != http.StatusOK {
		t.Fatalf("generate after a 413: %d, want 200", code)
	}
}

func TestGenerateBodyLimit(t *testing.T) {
	checkBodyLimit(t, newTestServer(t, testConfig(t)), "/v1/generate", "text", MaxGenerateBody)
}

func TestImportBodyLimit(t *testing.T) {
	srv := newTestServer(t, testConfig(t))
	checkBodyLimit(t, srv, "/v1/sessions/import", "snapshot", maxImportBody(srv.Config().ModelCfg))
}

// FuzzGenerateRequest runs arbitrary /v1/generate bodies through the
// handler's decoder and Submit's validation: nothing panics, a request
// that passes meets the engine's preconditions, and accepting it allocates
// at most c × the body's length plus a per-model constant.
func FuzzGenerateRequest(f *testing.F) {
	for _, body := range []string{
		`{"text":"what city hosts the museum","max_tokens":8,"protected":true}`,
		`{"prompt_tokens":[4,17,42],"max_tokens":252,"deadline_ms":60000}`,
		`{"dataset":"squad-sim","input":3,"max_tokens":8,"stream":true}`,
		`{"prompt_tokens":[4],"max_tokens":9223372036854775807}`,
		`{"prompt_tokens":[4],"max_tokens":1,"deadline_ms":9223372036855}`,
		`{"dataset":"gsm8k-sim","input":49,"max_tokens":1}`,
	} {
		f.Add([]byte(body))
	}
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		f.Fatal(err)
	}
	// The largest legitimate bodies: MaxSeq-1 three-digit prompt tokens, and
	// MaxSeq-2 one-letter words of text (the most tokens per byte).
	long := make([]int, cfg.MaxSeq-1)
	for i := range long {
		long[i] = cfg.Vocab - 1
	}
	body, _ := json.Marshal(Request{PromptTokens: long, MaxTokens: 1})
	f.Add(body)
	f.Add([]byte(`{"text":"` + strings.Repeat("a ", cfg.MaxSeq-2) + `","max_tokens":1}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req, prompt, d, err := resolveGenerateBody(t, cfg, body)
		if err != nil {
			return
		}
		outside := slices.ContainsFunc(prompt, func(tok int) bool { return tok < 0 || tok >= cfg.Vocab })
		if outside || req.MaxTokens < 1 || req.MaxTokens > cfg.MaxSeq-len(prompt) || d <= 0 {
			t.Fatalf("accepted prompt %v + max_tokens %d (vocab %d, MaxSeq %d), deadline %v",
				prompt, req.MaxTokens, cfg.Vocab, cfg.MaxSeq, d)
		}
	})
}

// resolveGenerateBody decodes a /v1/generate body and resolves its prompt and
// deadline as admission does, and returns them with the first error. Every
// body that decodes, accepted or refused, must allocate within the bound
// below; t fails when it does not.
func resolveGenerateBody(t *testing.T, cfg model.Config, body []byte) (Request, []int, time.Duration, error) {
	t.Helper()
	var rs [3]*http.Request // one per call of allocated's
	for i := range rs {
		rs[i] = httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
	}
	var req Request
	var prompt []int
	var d time.Duration
	var decErr, err error
	calls := 0
	n := allocated(func() {
		req = Request{} // a decode into a used slice would reuse it
		if decErr = decodeBody(httptest.NewRecorder(), rs[calls], MaxGenerateBody, &req, "request"); decErr == nil {
			if prompt, err = req.resolvePrompt(cfg); err == nil {
				d, err = req.deadline(time.Minute)
			}
		}
		calls++
	})
	if decErr != nil {
		return req, nil, 0, decErr
	}
	// json.Decoder's buffer doubles as it reads the body (at most 4× it in
	// all). A text prompt is unquoted into a buffer that doubles to hold it
	// and copied out once, at most 4 bytes per byte of the decoded text (an
	// invalid UTF-8 byte decodes to the 3-byte U+FFFD). A text is tokenized
	// only when it has fewer than MaxSeq words, and each costs at most 64
	// bytes: the text's fields (strings.Fields' growing span list when the
	// text is not ASCII), the ids and the copy behind BOS. The MaxSeq-1-token
	// seed reads 6920 bytes (6.5 per byte), a 513-byte text of 237 words with
	// invalid UTF-8 (testdata) 20104, and 4 KB of invalid UTF-8 in one word
	// 13.9 per byte. A dataset request reads a corpus built once, by the
	// first request that named it, so the least of allocated's runs builds
	// none.
	bound := uint64(6*len(body) + 4*len(req.Text) + 4<<10 + 64*cfg.MaxSeq)
	if n > bound {
		t.Fatalf("a %d-byte generate body (error %v) allocated %d bytes, bound %d", len(body), err, n, bound)
	}
	return req, prompt, d, err
}

// TestRejectedTextBodyAllocationBounded: a generate body whose text holds far
// more words than any prompt is refused with 400 before it is tokenized, so
// it allocates within FuzzGenerateRequest's bound. Tokenizing the ~1 MB of
// "\xb6 a " below would allocate about 67 MB.
func TestRejectedTextBodyAllocationBounded(t *testing.T) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"text":"` + strings.Repeat("\xb6 a ", 250_000) + `","max_tokens":1}`)
	_, _, _, err = resolveGenerateBody(t, cfg, body)
	if ae, ok := err.(*apiError); !ok || ae.Status != http.StatusBadRequest {
		t.Fatalf("a %d-byte body of %d words answered %v, want 400", len(body), 500_000, err)
	}
}

// TestDatasetCorpusBuiltOnce: a dataset request reads its corpus from the
// one the server built at maxDatasetInput inputs, so resolving one at input
// 49 allocates under 16 KB (rebuilding the corpus up to the named input
// allocated 283–287 KB), and its prompts equal data.ByName's. Handlers
// resolving every corpus at once get the same prompts.
func TestDatasetCorpusBuiltOnce(t *testing.T) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"squad-sim", "xtreme-sim", "gsm8k-sim", "chatprompts-sim", "tweeteval-sim", "mbpp-sim", "opus-sim"}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				req := Request{Dataset: name, Input: maxDatasetInput - 1, MaxTokens: 1}
				if _, err := req.resolvePrompt(cfg); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	for _, name := range names {
		for _, input := range []int{maxDatasetInput - 1, 17, 0} {
			ds, err := data.ByName(name, input+1)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Dataset: name, Input: input, MaxTokens: 1}
			var prompt []int
			if n := allocated(func() { prompt, err = req.resolvePrompt(cfg) }); n >= 16<<10 {
				t.Fatalf("%s input %d: resolving the prompt allocated %d bytes, want < 16 KB", name, input, n)
			}
			if err != nil || !slices.Equal(prompt, ds.Inputs[input].Prompt) {
				t.Fatalf("%s input %d: prompt %v (%v), data.ByName's %v", name, input, prompt, err, ds.Inputs[input].Prompt)
			}
		}
	}
}

// TestDeadlineMidPrefillReportsGenTime: a session whose deadline expires
// after a slice opened its prefill and before its first token was scheduled,
// so its Result splits its life at the open — queue time before, generation
// time after — instead of reporting all of it as queue time.
func TestDeadlineMidPrefillReportsGenTime(t *testing.T) {
	cfg := testConfig(t)
	cfg.PrefillChunk, cfg.SliceSteps = 4, 1
	const deadline = 100 * time.Millisecond
	sch, sessions := bareSchedulerOf(t, cfg, []Request{{
		PromptTokens: testPrompts(t, 1)(0), MaxTokens: 4, DeadlineMS: int(deadline / time.Millisecond),
	}})
	s := sessions[0]
	r := sch.runSlice(sch.pool.replicas[0], &group{}, <-sch.ready) // opens it, one chunk
	if s.startAt.IsZero() || !s.kv.st.Prefilling() {
		t.Fatal("the first slice did not leave the session mid-prefill")
	}
	time.Sleep(deadline)
	// Under load the first slice may already have settled the session past
	// its deadline, and then nothing is put back on the ring.
	select {
	case next := <-sch.ready:
		sch.runSlice(r, &group{}, next)
	case <-s.Done():
	}
	res, err := s.Wait(context.Background())
	if !errors.Is(err, ErrDeadline) || len(res.Tokens) != 0 {
		t.Fatalf("%v with %d tokens, want a deadline before the first token", err, len(res.Tokens))
	}
	if res.GenMS < float64(deadline/time.Millisecond)/2 || res.QueueMS >= res.GenMS {
		t.Fatalf("queue %.2f ms, generation %.2f ms: the time since the prefill opened is not generation time", res.QueueMS, res.GenMS)
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
	cfg := testConfig(t)
	cfg.PrefixCacheMB = 8
	srv := newTestServer(t, cfg)
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
	// kvGauges scrapes the KV memory gauges: reserved and filled bytes.
	kvGauges := func() (reserved, filled int64) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			fmt.Sscanf(sc.Text(), "ft2serve_kv_reserved_bytes %d", &reserved)
			fmt.Sscanf(sc.Text(), "ft2serve_kv_filled_bytes %d", &filled)
		}
		return reserved, filled
	}
	if reserved, filled := kvGauges(); reserved != 0 || filled != 0 {
		t.Fatalf("idle fresh server: KV reserved %d, filled %d bytes; want 0 and 0", reserved, filled)
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
		`ft2serve_token_latency_ms_bucket{le="0.05"} `,
		`ft2serve_token_latency_ms_bucket{le="+Inf"} `,
		"ft2serve_token_latency_ms_sum ",
		"ft2serve_token_latency_ms_count ",
		`ft2serve_request_latency_ms_bucket{le="+Inf"} 2`,
		"ft2serve_request_latency_ms_count 2",
		`ft2serve_ttft_ms_bucket{le="0.05"} `,
		"ft2serve_ttft_ms_count 2",
		"ft2serve_draining 0",
		"ft2serve_prefix_trail_bytes ",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, buf.String())
		}
	}
	// Both sessions settled: their states sit in the recycled pool, reserved
	// but holding no live rows.
	if reserved, filled := kvGauges(); reserved <= 0 || reserved < filled {
		t.Fatalf("after traffic: KV reserved %d, filled %d bytes; want reserved > 0 and ≥ filled", reserved, filled)
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

// TestHistogramCumulative: a Histogram renders, per upper bound, the
// observations at or below it — one on a bound counts in that bound's
// bucket — then +Inf's, the sum and the count.
func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 2.5, math.Inf(1)})
	for _, v := range []float64{0.5, 1, 2, 7} {
		h.Observe(v)
	}
	var b strings.Builder
	h.Render(&b, "x")
	want := "x_bucket{le=\"1\"} 2\nx_bucket{le=\"2.5\"} 3\nx_bucket{le=\"+Inf\"} 4\nx_sum 10.5\nx_count 4\n"
	if b.String() != want {
		t.Fatalf("rendered\n%s\nwant\n%s", b.String(), want)
	}
}

// TestTokenLinesMatchEncoder: the stream table, built once per Server and
// covering its vocabulary, holds for every id a zoo model can emit the bytes
// json.Encoder makes of the token's map — the HTML-escaped <…> specials
// included — so the stream's bytes are what they were when every line was
// encoded as it went out.
func TestTokenLinesMatchEncoder(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	lines, vocabSize := srv.lines(), srv.Config().ModelCfg.Vocab
	if len(lines) != vocabSize {
		t.Fatalf("%d stream lines for a vocabulary of %d", len(lines), vocabSize)
	}
	if &lines[0] != &srv.lines()[0] {
		t.Fatal("a second stream rebuilt the Server's table")
	}
	vocab := data.Vocab()
	for tok, line := range zooLines() {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(map[string]interface{}{"token": tok, "word": vocab.Word(tok)})
		if !bytes.Equal(line, want.Bytes()) {
			t.Fatalf("token %d: table line %q, encoder %q", tok, line, want.Bytes())
		}
	}
	if got, want := string(lines[tokenizer.EOS]), `{"token":2,"word":"\u003ceos\u003e"}`+"\n"; got != want {
		t.Fatalf("EOS line %q, want %q", got, want)
	}
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
