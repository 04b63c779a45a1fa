package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ft2/internal/data"
	"ft2/internal/serve"
)

func workerConfig(t *testing.T) serve.Config {
	t.Helper()
	return serve.Config{
		Model:       "qwen2-1.5b-sim",
		Seed:        7,
		Replicas:    1,
		MaxSessions: 8,
		SliceSteps:  3,
	}
}

// killableWorker is an in-process ft2serve worker whose death can be
// simulated: once killed it aborts in-flight streams and refuses every
// request, exactly what the router sees when a real process is SIGKILLed.
type killableWorker struct {
	srv   *serve.Server // the live incarnation; revive replaces it
	inner atomic.Value  // srv.Handler(), read by the request goroutines
	ts    *httptest.Server
	dead  atomic.Bool
}

func (k *killableWorker) kill() {
	k.dead.Store(true)
	k.ts.CloseClientConnections() // snap in-flight streams mid-token
}

// revive is the respawn after a kill: a fresh serve.Server — no session, no
// checkpoint, no cache — at the same URL, the name the ring knows it by.
func (k *killableWorker) revive(t *testing.T) {
	t.Helper()
	k.shutdown()
	srv, err := serve.New(k.srv.Config())
	if err != nil {
		t.Error(err)
		return
	}
	k.srv = srv
	k.inner.Store(srv.Handler())
	k.dead.Store(false)
}

func (k *killableWorker) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	k.srv.Shutdown(ctx)
}

func newKillableWorker(t *testing.T, cfg serve.Config) *killableWorker {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := &killableWorker{srv: srv}
	k.inner.Store(srv.Handler())
	k.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if k.dead.Load() {
			panic(http.ErrAbortHandler) // connection reset, like a dead process
		}
		k.inner.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		k.kill()
		k.ts.Close()
		k.shutdown()
	})
	return k
}

type testCluster struct {
	rt      *Router
	front   *httptest.Server
	workers []*killableWorker
}

func newTestCluster(t *testing.T, n int, cfg serve.Config, rcfg Config) *testCluster {
	t.Helper()
	c := &testCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		w := newKillableWorker(t, cfg)
		c.workers = append(c.workers, w)
		urls[i] = w.ts.URL
	}
	rcfg.Workers = urls
	if rcfg.ProbeInterval == 0 {
		rcfg.ProbeInterval = 20 * time.Millisecond
	}
	rt, err := New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	c.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		c.front.Close()
		rt.Close()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		t.Fatal("cluster never became ready")
	}
	return c
}

// workerFor maps a worker pointer back to its harness.
func (c *testCluster) harness(w *worker) *killableWorker {
	for i, kw := range c.workers {
		if kw.ts.URL == w.url {
			return c.workers[i]
		}
	}
	return nil
}

func testPrompt(t *testing.T) []int {
	t.Helper()
	ds, err := data.ByName("squad-sim", 1)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Inputs[0].Prompt
}

func oracleRun(t *testing.T, cfg serve.Config, prompt []int, maxTokens int) ([]int, serve.Corrections) {
	t.Helper()
	eff, err := cfg.WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	toks, corr, err := serve.Oracle(eff, prompt, maxTokens, true)
	if err != nil {
		t.Fatal(err)
	}
	return toks, corr
}

func equalInts(a, b []int) bool {
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

func TestRingDeterministicAndComplete(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	r1, r2 := newHashRing(urls, 64), newHashRing(urls, 64)
	for _, key := range []string{"s1", "s2", "another-session", ""} {
		s1, s2 := r1.sequence(key), r2.sequence(key)
		if !equalInts(s1, s2) {
			t.Fatalf("ring not deterministic for %q: %v vs %v", key, s1, s2)
		}
		if len(s1) != len(urls) {
			t.Fatalf("sequence for %q covers %d workers, want %d", key, len(s1), len(urls))
		}
		seen := map[int]bool{}
		for _, w := range s1 {
			if seen[w] {
				t.Fatalf("sequence for %q repeats worker %d", key, w)
			}
			seen[w] = true
		}
	}
	// Placement should actually spread: many sessions over 4 workers must
	// not all land on one.
	owners := map[int]int{}
	for i := 0; i < 200; i++ {
		owners[r1.sequence(string(rune('a'+i%26)) + string(rune('0'+i%10)))[0]]++
	}
	if len(owners) < 3 {
		t.Fatalf("placement collapsed onto %d workers: %v", len(owners), owners)
	}
}

// TestProxyMatchesOracle drives plain and streaming requests through the
// router with no faults: output must match the single-process oracle, and
// the streaming done-line result must agree with the relayed tokens.
func TestProxyMatchesOracle(t *testing.T) {
	const maxTokens = 16
	cfg := workerConfig(t)
	c := newTestCluster(t, 2, cfg, Config{})
	prompt := testPrompt(t)
	want, wantCorr := oracleRun(t, cfg, prompt, maxTokens)

	// Non-streaming.
	body, _ := json.Marshal(serve.Request{
		PromptTokens: prompt, MaxTokens: maxTokens, Protected: true, SessionID: "plain",
	})
	resp, err := http.Post(c.front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !equalInts(res.Tokens, want) {
		t.Fatalf("proxied tokens diverged:\n got %v\nwant %v", res.Tokens, want)
	}
	if res.Corrections.OutOfBound != wantCorr.OutOfBound {
		t.Fatalf("corrections %d != oracle %d", res.Corrections.OutOfBound, wantCorr.OutOfBound)
	}
	if res.Text != data.Vocab().Decode(want) {
		t.Fatalf("text mismatch: %q", res.Text)
	}

	// Streaming: relayed tokens and the terminal result must both match.
	sbody, _ := json.Marshal(serve.Request{
		PromptTokens: prompt, MaxTokens: maxTokens, Protected: true, Stream: true, SessionID: "streamy",
	})
	sresp, err := http.Post(c.front.URL+"/v1/generate", "application/json", bytes.NewReader(sbody))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	toks, sres := readClientStream(t, sresp.Body)
	if !equalInts(toks, want) || !equalInts(sres.Tokens, want) {
		t.Fatalf("streamed tokens diverged:\n got %v\n res %v\nwant %v", toks, sres.Tokens, want)
	}
	if st := c.rt.Stats(); st.Sessions != 2 || st.Migrations != 0 || st.Failures != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func readClientStream(t *testing.T, body io.Reader) ([]int, serve.Result) {
	t.Helper()
	dec := json.NewDecoder(body)
	var toks []int
	for {
		var l streamLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("client stream broke after %d tokens: %v", len(toks), err)
		}
		if l.Done {
			if l.Error != "" {
				t.Fatalf("stream error after %d tokens: %s", len(toks), l.Error)
			}
			return toks, *l.Result
		}
		toks = append(toks, *l.Token)
	}
}

// TestMigrationCheckpointResume is the tentpole invariant: kill the worker
// driving a session mid-stream; the router must resume it on the survivor
// from the last exported checkpoint and the client's total stream must be
// bit-identical to the single-process oracle.
func TestMigrationCheckpointResume(t *testing.T) {
	const maxTokens = 48
	cfg := workerConfig(t)
	cfg.ExportStride = 2
	cfg.StepDelay = 2 * time.Millisecond
	c := newTestCluster(t, 2, cfg, Config{FetchStride: 3})
	prompt := testPrompt(t)
	want, wantCorr := oracleRun(t, cfg, prompt, maxTokens)

	body, _ := json.Marshal(serve.Request{
		PromptTokens: prompt, MaxTokens: maxTokens, Protected: true, Stream: true, SessionID: "victim",
	})
	resp, err := http.Post(c.front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	owner := c.rt.pickWorker("victim")
	if owner == nil {
		t.Fatal("no owner")
	}
	dec := json.NewDecoder(resp.Body)
	var toks []int
	var res serve.Result
	for {
		var l streamLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("client stream broke after %d tokens: %v", len(toks), err)
		}
		if l.Done {
			if l.Error != "" {
				t.Fatalf("stream error after %d tokens: %s", len(toks), l.Error)
			}
			res = *l.Result
			break
		}
		toks = append(toks, *l.Token)
		if len(toks) == 12 {
			c.harness(owner).kill() // mid-generation, checkpoints already fetched
		}
	}

	if !equalInts(toks, want) {
		t.Fatalf("migrated stream diverged:\n got %v\nwant %v", toks, want)
	}
	if !equalInts(res.Tokens, want) {
		t.Fatalf("terminal result not rewritten to the full session: %v", res.Tokens)
	}
	if res.Corrections.OutOfBound != wantCorr.OutOfBound {
		t.Fatalf("corrections %d != oracle %d (fork state lost in migration?)",
			res.Corrections.OutOfBound, wantCorr.OutOfBound)
	}
	st := c.rt.Stats()
	if st.Migrations < 1 {
		t.Fatalf("no migration recorded: %+v", st)
	}
	if st.CheckpointResumes < 1 {
		t.Fatalf("migration did not use the checkpoint: %+v", st)
	}
	if st.Failures != 0 {
		t.Fatalf("failures: %+v", st)
	}
	if len(st.MigrationLatenciesM) < 1 {
		t.Fatal("no migration latency observed")
	}
}

// serving returns the worker driving session id right now — the one holding
// a checkpoint of it (nil between a kill and the next worker's first capture).
func (c *testCluster) serving(id string) *worker {
	for _, w := range c.rt.workers {
		resp, err := http.Get(w.url + "/v1/sessions/export?id=" + id)
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			return w
		}
	}
	return nil
}

// TestKillStormReadmission is the cluster property under a kill storm: six
// clients drive 24 protected sessions, streamed and plain alternating, over
// three workers, and the client that has read token 10 of every other stream
// kills the worker serving it and revives it empty at the same URL — the
// test is the client, so a kill lands mid-generation with no timer. Every
// session must equal the oracle (tokens, stream, out-of-bound corrections),
// none may fail, and every revived worker must take a new session.
func TestKillStormReadmission(t *testing.T) {
	const requests, clients, maxTokens, killAt = 24, 6, 32, 10
	cfg := workerConfig(t)
	cfg.ExportStride, cfg.StepDelay = 2, 2*time.Millisecond
	c := newTestCluster(t, 3, cfg, Config{FetchStride: 3})
	ds, err := data.ByName("squad-sim", 4)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCorr := make([][]int, len(ds.Inputs)), make([]serve.Corrections, len(ds.Inputs))
	for i, in := range ds.Inputs {
		want[i], wantCorr[i] = oracleRun(t, cfg, in.Prompt, maxTokens)
	}

	var storm sync.Mutex // one kill at a time: a session always has a survivor to move to
	killed := map[*worker]bool{}
	// session runs request i through the router as session id and holds its
	// stream and result to the oracle; atToken runs after each streamed token.
	session := func(i int, id string, atToken func(n int)) {
		in, stream := i%len(want), i%2 == 0
		body, _ := json.Marshal(serve.Request{
			PromptTokens: ds.Inputs[in].Prompt, MaxTokens: maxTokens, Protected: true, Stream: stream, SessionID: id,
		})
		resp, err := http.Post(c.front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("session %s: %v", id, err)
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		res := new(serve.Result)
		if !stream {
			err = dec.Decode(res)
		}
		for n := 0; stream && err == nil; n++ {
			var l streamLine
			if err = dec.Decode(&l); err == nil && l.Done {
				res = l.Result
				break
			}
			if err == nil && *l.Token != want[in][n] {
				err = fmt.Errorf("streamed token %d is %d, oracle %d", n, *l.Token, want[in][n])
			}
			atToken(n + 1)
		}
		if err != nil || res == nil || !equalInts(res.Tokens, want[in]) || res.Corrections.OutOfBound != wantCorr[in].OutOfBound {
			t.Errorf("session %s (status %d): %v\n got %+v\nwant %v, %d out-of-bound", id, resp.StatusCode, err, res, want[in], wantCorr[in].OutOfBound)
		}
	}
	var wg sync.WaitGroup
	for first := 0; first < clients; first++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := first; i < requests; i += clients {
				id := fmt.Sprintf("storm-%d", i)
				session(i, id, func(n int) {
					if n != killAt || i%4 != 0 {
						return
					}
					storm.Lock()
					defer storm.Unlock()
					if w := c.serving(id); w != nil {
						c.harness(w).kill()
						c.harness(w).revive(t)
						killed[w] = true
					}
				})
			}
		}()
	}
	wg.Wait()
	if st := c.rt.Stats(); len(killed) == 0 || st.Migrations < 1 || st.Failures != 0 || st.Sessions != requests {
		t.Fatalf("%d workers killed, stats %+v: want a kill, a migration, no failure", len(killed), st)
	}

	// Re-admission: a revived worker turns healthy at its old URL and prefills the next session it owns.
	for w := range killed {
		for deadline := time.Now().Add(5 * time.Second); !w.healthy.Load() && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		id := "readmit-0"
		for n := 1; c.rt.pickWorker(id) != w; n++ {
			if id = fmt.Sprintf("readmit-%d", n); n == 1000 {
				t.Fatalf("revived worker %s is never picked (healthy=%v)", w.url, w.healthy.Load())
			}
		}
		_, before, _ := c.harness(w).srv.PrefillCounters()
		session(1, id, nil) // request 1 is plain: no streamed token, atToken unused
		if _, after, _ := c.harness(w).srv.PrefillCounters(); after-before != int64(len(ds.Inputs[1].Prompt)) {
			t.Fatalf("revived worker %s prefilled %d prompt tokens for a session it owns, want %d",
				w.url, after-before, len(ds.Inputs[1].Prompt))
		}
	}
}

// TestFreshFailover kills a worker with checkpoint fetching disabled: the
// router must replay the whole session on the survivor — slower, but still
// bit-identical.
func TestFreshFailover(t *testing.T) {
	const maxTokens = 24
	cfg := workerConfig(t)
	cfg.StepDelay = 2 * time.Millisecond
	c := newTestCluster(t, 2, cfg, Config{}) // FetchStride 0: no checkpoints
	prompt := testPrompt(t)
	want, _ := oracleRun(t, cfg, prompt, maxTokens)

	body, _ := json.Marshal(serve.Request{
		PromptTokens: prompt, MaxTokens: maxTokens, Protected: true, Stream: true, SessionID: "fresh",
	})
	resp, err := http.Post(c.front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	owner := c.rt.pickWorker("fresh")
	dec := json.NewDecoder(resp.Body)
	var toks []int
	killed := false
	for {
		var l streamLine
		if err := dec.Decode(&l); err != nil {
			t.Fatalf("client stream broke after %d tokens: %v", len(toks), err)
		}
		if l.Done {
			if l.Error != "" {
				t.Fatalf("stream error: %s", l.Error)
			}
			break
		}
		toks = append(toks, *l.Token)
		if len(toks) == 6 && !killed {
			killed = true
			c.harness(owner).kill()
		}
	}
	if !equalInts(toks, want) {
		t.Fatalf("fresh failover diverged:\n got %v\nwant %v", toks, want)
	}
	st := c.rt.Stats()
	if st.Migrations < 1 || st.CheckpointResumes != 0 {
		t.Fatalf("expected fresh (non-checkpoint) migration: %+v", st)
	}
}

// TestRoutesAroundDrainingWorker puts one worker into drain: its /healthz
// flips 503, the prober takes it out of rotation, and new sessions land on
// the other worker without client-visible errors.
func TestRoutesAroundDrainingWorker(t *testing.T) {
	const maxTokens = 8
	cfg := workerConfig(t)
	c := newTestCluster(t, 2, cfg, Config{ProbeInterval: 10 * time.Millisecond})
	prompt := testPrompt(t)
	want, _ := oracleRun(t, cfg, prompt, maxTokens)

	c.workers[0].srv.BeginDrain()
	deadline := time.Now().Add(2 * time.Second)
	for c.rt.workers[0].healthy.Load() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.rt.workers[0].healthy.Load() {
		t.Fatal("prober never noticed the drain")
	}

	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(serve.Request{
			PromptTokens: prompt, MaxTokens: maxTokens, Protected: true,
		})
		resp, err := http.Post(c.front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var res serve.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		if !equalInts(res.Tokens, want) {
			t.Fatalf("request %d diverged", i)
		}
	}
	if st := c.rt.Stats(); st.Failures != 0 {
		t.Fatalf("failures while draining: %+v", st)
	}
}

// TestClientErrorsPassThrough checks a worker's 4xx verdict reaches the
// client untouched instead of triggering failover.
func TestClientErrorsPassThrough(t *testing.T) {
	cfg := workerConfig(t)
	c := newTestCluster(t, 2, cfg, Config{})
	body, _ := json.Marshal(serve.Request{MaxTokens: 4}) // no prompt at all
	resp, err := http.Post(c.front.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, msg)
	}
	if !strings.Contains(string(msg), "prompt") {
		t.Fatalf("unexpected error body %q", msg)
	}
	if st := c.rt.Stats(); st.Migrations != 0 {
		t.Fatalf("4xx caused failover: %+v", st)
	}
}

// TestRouterMetricsAndHealth exercises the router's own observability
// endpoints.
func TestRouterMetricsAndHealth(t *testing.T) {
	cfg := workerConfig(t)
	c := newTestCluster(t, 2, cfg, Config{})
	get := func(path string) (int, string) {
		resp, err := http.Get(c.front.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Fatalf("healthz %d", code)
	}
	if code, _ := get("/livez"); code != 200 {
		t.Fatalf("livez %d", code)
	}
	code, metrics := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics %d", code)
	}
	for _, want := range []string{
		"ft2router_workers 2", "ft2router_workers_healthy 2",
		"ft2router_sessions_total", "ft2router_migrations_total",
		"ft2router_migration_latency_ms",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if code, body := get("/v1/models"); code != 200 || !strings.Contains(body, "qwen2-1.5b-sim") {
		t.Fatalf("models passthrough: %d %q", code, body)
	}

	for _, w := range c.workers {
		w.kill()
	}
	deadline := time.Now().Add(2 * time.Second)
	for c.rt.healthyCount() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := get("/healthz"); code != 503 {
		t.Fatalf("dead cluster healthz %d, want 503", code)
	}
}
