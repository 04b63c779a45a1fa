package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/core"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/wire"
)

// submitAndWait runs one request to completion against srv.
func submitAndWait(t *testing.T, srv *Server, req Request) Result {
	t.Helper()
	sess, err := srv.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// streamLine mirrors the worker's NDJSON stream shape.
type streamLine struct {
	Token  *int    `json:"token"`
	Word   string  `json:"word"`
	Done   bool    `json:"done"`
	Error  string  `json:"error"`
	Result *Result `json:"result"`
}

func readStream(t *testing.T, body io.Reader) ([]int, *Result, string) {
	t.Helper()
	var toks []int
	dec := json.NewDecoder(body)
	for {
		var l streamLine
		if err := dec.Decode(&l); err != nil {
			if err == io.EOF {
				t.Fatal("stream ended without a done line")
			}
			t.Fatal(err)
		}
		if l.Done {
			return toks, l.Result, l.Error
		}
		if l.Token != nil {
			toks = append(toks, *l.Token)
		}
	}
}

// TestExportImportMigration drives a session with checkpoint export on,
// pulls its live checkpoint over HTTP mid-generation, imports it into a
// SECOND server (a different process in spirit), and checks stitched output
// and cumulative corrections are bit-identical to the oracle — the
// worker-side half of live migration.
func TestExportImportMigration(t *testing.T) {
	const maxTokens = 24
	cfg := testConfig(t)
	cfg.ExportStride = 4
	cfg.StepDelay = 2 * time.Millisecond
	srcSrv := newTestServer(t, cfg)
	ts := httptest.NewServer(srcSrv.Handler())
	defer ts.Close()

	prompts := testPrompts(t, 1)
	oracleToks, oracleCorr, err := Oracle(srcSrv.Config(), prompts(0), maxTokens, true)
	if err != nil {
		t.Fatal(err)
	}

	// Start a streaming generation, read a few tokens, then grab the live
	// checkpoint while the session is still in flight.
	body, _ := json.Marshal(Request{
		PromptTokens: prompts(0), MaxTokens: maxTokens, Protected: true,
		Stream: true, SessionID: "migrate-me",
	})
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var received []int
	for len(received) < 8 {
		var l streamLine
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Done {
			t.Fatalf("stream finished after %d tokens, wanted to catch it mid-flight", len(received))
		}
		received = append(received, *l.Token)
	}

	exp, err := http.Get(ts.URL + "/v1/sessions/export?id=migrate-me")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(exp.Body)
	exp.Body.Close()
	if exp.StatusCode != 200 {
		t.Fatalf("export: %d %s", exp.StatusCode, blob)
	}
	ckptTokens, err := strconv.Atoi(exp.Header.Get("X-FT2-Checkpoint-Tokens"))
	if err != nil || ckptTokens < 1 {
		t.Fatalf("bad X-FT2-Checkpoint-Tokens %q", exp.Header.Get("X-FT2-Checkpoint-Tokens"))
	}
	if ckptTokens > len(received) {
		// The checkpoint may trail what we've read but never lead past the
		// emitted stream by more than the in-flight token; reading the
		// stream serialized emission, so this bound is exact.
		t.Fatalf("checkpoint covers %d tokens but only %d were received", ckptTokens, len(received))
	}

	// Import onto a second, fresh server — the "surviving worker".
	dstSrv := newTestServer(t, cfg)
	ts2 := httptest.NewServer(dstSrv.Handler())
	defer ts2.Close()
	ib, _ := json.Marshal(ImportRequest{
		SessionID: "migrate-me", MaxTokensTotal: maxTokens, Snapshot: blob,
	})
	iresp, err := http.Post(ts2.URL+"/v1/sessions/import", "application/json", bytes.NewReader(ib))
	if err != nil {
		t.Fatal(err)
	}
	defer iresp.Body.Close()
	if iresp.StatusCode != 200 {
		msg, _ := io.ReadAll(iresp.Body)
		t.Fatalf("import: %d %s", iresp.StatusCode, msg)
	}
	suffix, ires, ierr := readStream(t, iresp.Body)
	if ierr != "" {
		t.Fatalf("import stream error: %s", ierr)
	}

	stitched := append(append([]int(nil), received[:ckptTokens]...), suffix...)
	if !equalTokens(stitched, oracleToks) {
		t.Fatalf("migrated output diverged:\n got %v\nwant %v", stitched, oracleToks)
	}
	if ires.Corrections.OutOfBound != oracleCorr.OutOfBound {
		t.Fatalf("migrated corrections %d != oracle %d (must be cumulative)",
			ires.Corrections.OutOfBound, oracleCorr.OutOfBound)
	}
	if got := dstSrv.mx.sessImported.Load(); got != 1 {
		t.Fatalf("sessions_imported_total %d, want 1", got)
	}

	// Drain the original stream so the test server can close down cleanly.
	for {
		var l streamLine
		if err := dec.Decode(&l); err != nil || l.Done {
			break
		}
	}
}

// TestSpillResumeAcrossRestart parks a finished session on disk, then
// resumes it on a brand-new server instance (simulating a process restart)
// for N more tokens: the concatenation must be bit-identical to a 2N-token
// oracle run, corrections cumulative, and the spill/restore counters live.
func TestSpillResumeAcrossRestart(t *testing.T) {
	const half = 10
	dir := t.TempDir()
	cfg := testConfig(t)
	cfg.SpillDir = dir
	prompts := testPrompts(t, 1)

	srv1 := newTestServer(t, cfg)
	oracleToks, oracleCorr, err := Oracle(srv1.Config(), prompts(0), 2*half, true)
	if err != nil {
		t.Fatal(err)
	}
	res1 := submitAndWait(t, srv1, Request{
		PromptTokens: prompts(0), MaxTokens: half, Protected: true, SessionID: "parked",
	})
	if got := srv1.mx.sessSpilled.Load(); got != 1 {
		t.Fatalf("sessions_spilled_total %d, want 1", got)
	}
	srv1.Shutdown(context.Background())

	srv2 := newTestServer(t, cfg) // "after restart": same spill dir, new process state
	res2 := submitAndWait(t, srv2, Request{
		Resume: true, SessionID: "parked", MaxTokens: half,
	})
	full := append(append([]int(nil), res1.Tokens...), res2.Tokens...)
	if !equalTokens(full, oracleToks) {
		t.Fatalf("spill+resume diverged:\n got %v\nwant %v", full, oracleToks)
	}
	if !res2.Protected {
		t.Fatal("resumed session lost its protection")
	}
	if res2.Corrections.OutOfBound != oracleCorr.OutOfBound {
		t.Fatalf("resumed corrections %d != oracle %d", res2.Corrections.OutOfBound, oracleCorr.OutOfBound)
	}
	if got := srv2.mx.sessRestored.Load(); got != 1 {
		t.Fatalf("sessions_restored_total %d, want 1", got)
	}

	// The resumed session finished successfully, so it was re-parked: a
	// second resume continues from 2N. Metrics must show both counters.
	rec := httptest.NewRecorder()
	srv2.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{"ft2serve_sessions_spilled_total 1", "ft2serve_sessions_restored_total 1"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestResumeValidation covers the resume error surface: parking off,
// unknown ids, prompts on resume requests.
func TestResumeValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.SpillDir = t.TempDir()
	srv := newTestServer(t, cfg)

	cases := []struct {
		name   string
		req    Request
		status int
	}{
		{"unknown id", Request{Resume: true, SessionID: "nope", MaxTokens: 4}, 404},
		{"missing id", Request{Resume: true, MaxTokens: 4}, 400},
		{"prompt on resume", Request{Resume: true, SessionID: "x", MaxTokens: 4, Text: "hi"}, 400},
		{"no budget", Request{Resume: true, SessionID: "x", MaxTokens: 0}, 400},
	}
	for _, tc := range cases {
		_, err := srv.Submit(context.Background(), tc.req)
		if err == nil || errStatus(err) != tc.status {
			t.Fatalf("%s: got %v (status %d), want %d", tc.name, err, errStatus(err), tc.status)
		}
	}

	off := testConfig(t)
	srvOff := newTestServer(t, off)
	if _, err := srvOff.Submit(context.Background(), Request{Resume: true, SessionID: "x", MaxTokens: 4}); errStatus(err) != 404 {
		t.Fatalf("parking off: got %v, want 404", err)
	}
}

// TestImportValidation covers the import error surface: garbage blobs and
// exhausted budgets must answer 4xx, not panic or 500.
func TestImportValidation(t *testing.T) {
	cfg := testConfig(t)
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/sessions/import", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	garbage, _ := json.Marshal(ImportRequest{SessionID: "g", MaxTokensTotal: 8, Snapshot: []byte("not a blob")})
	if code := post(garbage); code != 400 {
		t.Fatalf("garbage snapshot: %d, want 400", code)
	}
	if code := post([]byte("{")); code != 400 {
		t.Fatalf("bad json: %d, want 400", code)
	}
}

// FuzzImportRequest feeds arbitrary /v1/sessions/import bodies through the
// handler's checks — decodeBody under the maxImportBody cap, DecodeSessionFor
// and validateAdoptable (decodeImport). Nothing may panic, and a body they
// accept must meet Restore's preconditions and leave the tokens it asks for
// room in the KV cache: the adopted session's first slice restores it.
func FuzzImportRequest(f *testing.F) {
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		f.Fatal(err)
	}
	m, err := model.New(cfg, 7, numerics.FP16)
	if err != nil {
		f.Fatal(err)
	}
	ft := core.New(m, core.Defaults())
	ft.Reset()
	ft.Install()
	tok := m.Prefill([]int{4, 17, 42})
	fk := ft.CaptureForkState()
	for i := 0; i < 5; i++ {
		tok = m.DecodeStep(tok)
	}
	var snap model.Snapshot
	m.Checkpoint(&snap)
	for _, fork := range []*core.ForkState{nil, &fk} {
		blob, err := wire.EncodeSession(&snap, fork)
		if err != nil {
			f.Fatal(err)
		}
		for _, total := range []int{16, snap.NextStep(), cfg.MaxSeq, math.MinInt} {
			body, _ := json.Marshal(ImportRequest{SessionID: "s", MaxTokensTotal: total, DeadlineMS: 1000, Snapshot: blob})
			f.Add(body)
		}
		body, _ := json.Marshal(ImportRequest{SessionID: "s", MaxTokensTotal: 16, Snapshot: blob[:len(blob)/2]})
		f.Add(body)
	}
	f.Add([]byte(`{"session_id":"s","max_tokens_total":8,"snapshot":"RlQyVw=="}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/import", bytes.NewReader(body))
		req, snap, fk, err := decodeImport(httptest.NewRecorder(), r, cfg)
		if err != nil {
			if st := errStatus(err); st != http.StatusBadRequest && st != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejected with %d: %v", st, err)
			}
			return
		}
		if err := snap.Compatible(cfg); err != nil || snap.NextStep() < 1 || req.Protected != (fk != nil) ||
			req.MaxTokens < 1 || snap.Rows()+req.MaxTokens > cfg.MaxSeq {
			t.Fatalf("accepted a snapshot of %d rows at step %d for %d more tokens (MaxSeq %d): %v",
				snap.Rows(), snap.NextStep(), req.MaxTokens, cfg.MaxSeq, err)
		}
		if got := m.Restore(snap); got != snap.LastToken() || got < 0 || got >= cfg.Vocab {
			t.Fatalf("restored resume token %d (snapshot %d, vocab %d)", got, snap.LastToken(), cfg.Vocab)
		}
	})
}

// TestHugeDeadlineRejected: a deadline_ms whose nanoseconds overflow
// time.Duration answers 400 on both admission endpoints. Converted as is,
// 2^62 ms wraps to a 0 s deadline (504 without running) and other values to
// arbitrary durations.
func TestHugeDeadlineRejected(t *testing.T) {
	cfg := testConfig(t)
	cfg.SpillDir = t.TempDir()
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	toks := testPrompts(t, 1)(0)
	prompt, _ := json.Marshal(toks)
	submitAndWait(t, srv, Request{PromptTokens: toks, MaxTokens: 4, SessionID: "parked"})
	blob, err := readSpill(cfg.SpillDir, "parked")
	if err != nil {
		t.Fatal(err)
	}
	snapshot, _ := json.Marshal(blob)
	for _, ms := range []string{"4611686018427387904", "9223372036855", "9223372036854775807"} {
		gen := `{"prompt_tokens":` + string(prompt) + `,"max_tokens":4,"deadline_ms":` + ms + `}`
		if code := post("/v1/generate", gen); code != http.StatusBadRequest {
			t.Errorf("generate deadline_ms %s: %d, want 400", ms, code)
		}
		imp := `{"session_id":"imp","max_tokens_total":8,"deadline_ms":` + ms + `,"snapshot":` + string(snapshot) + `}`
		if code := post("/v1/sessions/import", imp); code != http.StatusBadRequest {
			t.Errorf("import deadline_ms %s: %d, want 400", ms, code)
		}
	}
	if code := post("/v1/generate", `{"prompt_tokens":`+string(prompt)+`,"max_tokens":4,"deadline_ms":60000}`); code != http.StatusOK {
		t.Fatalf("generate with a one-minute deadline: %d, want 200", code)
	}
}

// TestStartupGate checks the liveness/readiness split during the build
// window: /healthz 503s, /livez 200s, and after Ready everything passes
// through to the real handler.
func TestStartupGate(t *testing.T) {
	gate := NewStartupGate()
	ts := httptest.NewServer(gate)
	defer ts.Close()

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != 503 {
		t.Fatalf("initializing /healthz: %d, want 503", code)
	}
	if code := get("/v1/generate"); code != 503 {
		t.Fatalf("initializing /v1/generate: %d, want 503", code)
	}
	if code := get("/livez"); code != 200 {
		t.Fatalf("initializing /livez: %d, want 200", code)
	}

	srv := newTestServer(t, testConfig(t))
	gate.Ready(srv.Handler())
	if code := get("/healthz"); code != 200 {
		t.Fatalf("ready /healthz: %d, want 200", code)
	}
	srv.BeginDrain()
	if code := get("/healthz"); code != 503 {
		t.Fatalf("draining /healthz: %d, want 503 (readiness)", code)
	}
	if code := get("/livez"); code != 200 {
		t.Fatalf("draining /livez: %d, want 200 (liveness)", code)
	}
}

// TestExportViewMatchesCheckpoint holds every export capture — encoded from a
// model.View of the live KV slabs — to the envelope of a Checkpoint copy of
// the same state, byte for byte and token count for token count: bare and
// protected sessions, at 1 row, at 64 rows and past them, resumed from the
// prefix cache, and adopted from another session's blob.
func TestExportViewMatchesCheckpoint(t *testing.T) {
	cfg := testConfig(t)
	cfg.ExportStride = 1 // every emitted token is a stride boundary…
	cfg.SliceSteps = 1   // …and is checked before the next one
	cfg.PrefixCacheMB = 8
	cfg.PrefillChunk = 8 // the second long prompt parks behind the first and hits
	long := testPrompts(t, 1)(0)
	if len(long) > 64 {
		t.Fatalf("prompt of %d tokens: the sweep must start below 64 rows", len(long))
	}
	var reqs []Request
	for _, protected := range []bool{false, true} {
		reqs = append(reqs,
			Request{PromptTokens: long[:1], MaxTokens: 4, Protected: protected, SessionID: fmt.Sprint("one-", protected)},
			Request{PromptTokens: long, MaxTokens: 72 - len(long), Protected: protected, SessionID: fmt.Sprint("long-", protected)})
	}
	sch, sessions := bareSchedulerOf(t, cfg, reqs)
	r, g := sch.pool.replicas[0], &group{}

	type seen struct {
		protected bool
		rows      int
	}
	covered := map[seen]bool{}
	var hit, adopted bool
	var foreign []byte // a protected capture past 64 rows, adopted below
	check := func() {
		for _, s := range sessions {
			if !s.started || s.kv.st == nil {
				continue
			}
			blob, tokens, err := sch.exportFor(s.req.SessionID)
			if err != nil {
				t.Fatalf("session %s decoding with no checkpoint: %v", s.req.SessionID, err)
			}
			snap := &model.Snapshot{}
			prev := r.m.SwapState(s.kv.st)
			r.m.Checkpoint(snap)
			r.m.SwapState(prev)
			var fk *core.ForkState
			if s.req.Protected {
				fk = &s.ftState
			}
			want, err := wire.EncodeSession(snap, fk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, want) || tokens != snap.NextStep() {
				t.Fatalf("session %s at %d rows: view-encoded export (%d bytes, %d tokens) != Checkpoint copy (%d bytes, %d tokens)",
					s.req.SessionID, snap.Rows(), len(blob), tokens, len(want), snap.NextStep())
			}
			covered[seen{s.req.Protected, snap.Rows()}] = true
			hit = hit || s.hitRows > 0
			adopted = adopted || s.adoptKind == adoptImport
			if s.req.Protected && snap.Rows() > 64 && foreign == nil {
				foreign = blob
			}
		}
	}
	drive := func() {
		for len(sch.ready) > 0 {
			r = sch.runSlice(r, g, <-sch.ready)
			check()
		}
	}
	drive()

	snap, fk, err := wire.DecodeSessionFor(foreign, sch.cfg.ModelCfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sch.submitAdopted(context.Background(),
		Request{SessionID: "adopted", MaxTokens: 6, Protected: true}, snap, fk, adoptImport)
	if err != nil {
		t.Fatal(err)
	}
	sch.slots <- struct{}{}
	sch.ready <- <-sch.admit
	sessions = append(sessions, s)
	drive()

	for _, protected := range []bool{false, true} {
		for _, rows := range []int{1, 64, 65} {
			if !covered[seen{protected, rows}] {
				t.Errorf("no capture compared at %d rows (protected=%v)", rows, protected)
			}
		}
	}
	if !hit || !adopted {
		t.Errorf("captures compared: prefix-cache hit %v, adopted %v; want both", hit, adopted)
	}
}

// TestExportFetchDuringDecodeSettleRecycle polls /v1/sessions/export from
// several goroutines while sessions decode, settle and hand their KV states
// to the sessions admitted after them, so fetches encode marks concurrently
// with decode steps, settles and recycling. Every 200 must decode for the
// served model with X-FT2-Checkpoint-Tokens equal to its NextStep; the blobs
// of one prompt at one token count must be byte-identical across rounds;
// and each, imported into a second server, must continue to the oracle.
func TestExportFetchDuringDecodeSettleRecycle(t *testing.T) {
	const rounds, perRound, pollers, maxTokens = 3, 4, 3, 16
	cfg := testConfig(t)
	cfg.Replicas = 2
	cfg.MaxSessions = perRound // each round runs on the states the last one recycled
	cfg.ExportStride = 2
	cfg.StepDelay = time.Millisecond
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	prompts := testPrompts(t, perRound)
	protected := func(i int) bool { return i%2 == 1 }
	oracle := make([][]int, perRound)
	for i := range oracle {
		var err error
		if oracle[i], _, err = Oracle(srv.Config(), prompts(i), maxTokens, protected(i)); err != nil {
			t.Fatal(err)
		}
	}
	id := func(round, i int) string { return fmt.Sprintf("s%d-r%d", i, round) }
	modelCfg := srv.Config().ModelCfg

	type mark struct{ prompt, tokens int }
	var mu sync.Mutex
	blobs := map[mark][]byte{}
	fetched := 0
	stop := make(chan struct{})
	var wg sync.WaitGroup
	stopPollers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopPollers()
	for p := 0; p < pollers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := p; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				round, i := n/perRound%rounds, n%perRound
				resp, err := http.Get(ts.URL + "/v1/sessions/export?id=" + id(round, i))
				if err != nil {
					t.Error(err)
					return
				}
				blob, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusNotFound {
					continue
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("export of %s: %d %s", id(round, i), resp.StatusCode, blob)
					return
				}
				snap, fk, err := wire.DecodeSessionFor(blob, modelCfg)
				if err != nil {
					t.Errorf("export of %s: %v", id(round, i), err)
					return
				}
				tokens, _ := strconv.Atoi(resp.Header.Get("X-FT2-Checkpoint-Tokens"))
				if tokens != snap.NextStep() || (fk != nil) != protected(i) {
					t.Errorf("export of %s: header says %d tokens, snapshot %d; fork state %v", id(round, i), tokens, snap.NextStep(), fk != nil)
					return
				}
				mu.Lock()
				fetched++
				if prev, ok := blobs[mark{i, tokens}]; ok && !bytes.Equal(prev, blob) {
					t.Errorf("prompt %d at %d tokens: blobs differ across sessions", i, tokens)
				}
				blobs[mark{i, tokens}] = blob
				mu.Unlock()
			}
		}()
	}
	for round := 0; round < rounds; round++ {
		sessions := make([]*Session, perRound)
		for i := range sessions {
			var err error
			sessions[i], err = srv.Submit(context.Background(), Request{
				PromptTokens: prompts(i), MaxTokens: maxTokens, Protected: protected(i), SessionID: id(round, i),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, s := range sessions {
			res, err := s.Wait(context.Background())
			if err != nil || !equalTokens(res.Tokens, oracle[i]) {
				t.Fatalf("round %d session %d: %v, tokens %v, oracle %v", round, i, err, res.Tokens, oracle[i])
			}
		}
	}
	stopPollers()
	if fetched == 0 {
		t.Fatal("no export fetch found a live checkpoint")
	}

	dst := newTestServer(t, srv.Config())
	ts2 := httptest.NewServer(dst.Handler())
	defer ts2.Close()
	for m, blob := range blobs {
		ib, _ := json.Marshal(ImportRequest{SessionID: fmt.Sprint("import-", m.prompt, "-", m.tokens), MaxTokensTotal: maxTokens, Snapshot: blob})
		resp, err := http.Post(ts2.URL+"/v1/sessions/import", "application/json", bytes.NewReader(ib))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("import of prompt %d at %d tokens: %d %s", m.prompt, m.tokens, resp.StatusCode, msg)
		}
		suffix, _, ierr := readStream(t, resp.Body)
		resp.Body.Close()
		if ierr != "" || !equalTokens(suffix, oracle[m.prompt][m.tokens:]) {
			t.Fatalf("prompt %d imported at %d tokens continued to %v (%s), oracle %v",
				m.prompt, m.tokens, suffix, ierr, oracle[m.prompt][m.tokens:])
		}
	}
	t.Logf("%d fetches, %d distinct checkpoints imported", fetched, len(blobs))
}

// encodeLive encodes s's live state — with its fork state when protected —
// from a fresh model.View of its KV slabs: the reference a fetched mark is
// held to. The caller owns the session between steps.
func encodeLive(r *replica, s *Session) ([]byte, error) {
	var view model.Snapshot
	r.m.View(s.kv.st, &view)
	var fk *core.ForkState
	if s.req.Protected {
		fk = &s.ftState
	}
	return wire.EncodeSession(&view, fk)
}

// TestExportPredatesChaosKVFault: a chaos KV fault that lands after a mark
// and before anyone fetched it rewrites rows the mark covers, so the worker
// encodes the mark first. The fetch afterwards must return, byte for byte,
// the encoding of the state at the mark taken before the fault.
func TestExportPredatesChaosKVFault(t *testing.T) {
	cfg := chaosConfig(t, chaos.Config{Seed: 5, Rate: 1, Mix: fault.TargetMix{KV: 1}})
	cfg.ExportStride = 4
	cfg.SliceSteps = 1
	sch, sessions := bareSchedulerOf(t, cfg, []Request{{
		PromptTokens: testPrompts(t, 1)(0), MaxTokens: 32, Protected: true, Chaos: true, SessionID: "kv",
	}})
	r, g, s := sch.pool.replicas[0], &group{}, sessions[0]
	faults := 0
	for marks := 0; marks < 3; {
		r = sch.runSlice(r, g, <-sch.ready)
		if !s.started || s.lastExport != s.kv.st.Step()+1 {
			continue
		}
		// Just marked, not yet fetched: the next slice opens with a KV fault.
		marks++
		want, err := encodeLive(r, s)
		if err != nil {
			t.Fatal(err)
		}
		injected := sch.chaos.Counters().InjectedKV
		r = sch.runSlice(r, g, <-sch.ready)
		if sch.chaos.Counters().InjectedKV == injected {
			continue
		}
		faults++
		if s.lastExport == s.kv.st.Step()+1 {
			t.Fatal("a second mark before the fetch: the stride is too short for this test")
		}
		blob, tokens, err := sch.exportFor("kv")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blob, want) || tokens != s.lastExport {
			t.Fatalf("fetch after a KV fault: %d bytes covering %d tokens, differ from the %d-byte encoding at the mark (%d tokens)",
				len(blob), tokens, len(want), s.lastExport)
		}
	}
	if faults == 0 {
		t.Fatal("no KV fault landed between a mark and its fetch")
	}
}

// TestExportMarkSurvivesSlabGrowth: a session whose horizon was
// under-declared grows its KV slabs mid-decode, after a mark and before
// anyone fetched it. The mark still reads the old slabs, which no step
// writes again, so the fetch must return, byte for byte, the encoding of the
// state at the mark. Fetches then race the decode steps, and the next mark's
// View, to the end of the generation, which must still be the oracle's.
func TestExportMarkSurvivesSlabGrowth(t *testing.T) {
	cfg := testConfig(t)
	cfg.ExportStride = 4
	cfg.SliceSteps = 1
	prompt := testPrompts(t, 1)(0)
	const maxTokens = 32
	for _, protected := range []bool{false, true} {
		sch, sessions := bareSchedulerOf(t, cfg, []Request{{
			PromptTokens: prompt, MaxTokens: maxTokens, Protected: protected, SessionID: "grow",
		}})
		// Reserved to the prompt plus two rows: the third decode step, between
		// the marks at tokens 1 and 5, grows the slabs to MaxSeq.
		sch.horizonShort = maxTokens - 2
		oracle, _, err := Oracle(sch.cfg, prompt, maxTokens, protected)
		if err != nil {
			t.Fatal(err)
		}
		r, g, s := sch.pool.replicas[0], &group{}, sessions[0]
		var want []byte
		marked := 0
		for grown := false; !grown; {
			r = sch.runSlice(r, g, <-sch.ready)
			if !s.started {
				continue
			}
			if _, _, _, pitch := s.kv.st.KVSlabs(0); pitch == sch.cfg.ModelCfg.MaxSeq {
				grown = true
				if want == nil || s.lastExport != marked {
					t.Fatalf("protected=%v: the slabs grew at step %d, not between two marks", protected, s.kv.st.Step())
				}
				blob, tokens, err := sch.exportFor("grow")
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, want) || tokens != marked {
					t.Fatalf("protected=%v: fetch after the slabs grew: %d bytes covering %d tokens, differ from the %d-byte encoding at the mark (%d tokens)",
						protected, len(blob), tokens, len(want), marked)
				}
			} else if s.lastExport == s.kv.st.Step()+1 { // just marked, not yet fetched
				if want, err = encodeLive(r, s); err != nil {
					t.Fatal(err)
				}
				marked = s.lastExport
			}
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					sch.exportFor("grow") // 404 once settled
				}
			}
		}()
		for len(sch.ready) > 0 {
			r = sch.runSlice(r, g, <-sch.ready)
		}
		close(stop)
		wg.Wait()
		res, err := s.Wait(context.Background())
		if err != nil || !equalTokens(res.Tokens, oracle) {
			t.Fatalf("protected=%v: grown session: %v, tokens %v, oracle %v", protected, err, res.Tokens, oracle)
		}
	}
}

// TestRecycledStateKeepsItsSlabs: a session admitted onto a recycled state
// whose pitch covers its horizon decodes on the slabs as they are — taking
// the state allocates nothing — and the KV gauges follow the state from the
// first session to the pool, to the second session and back.
func TestRecycledStateKeepsItsSlabs(t *testing.T) {
	cfg := testConfig(t)
	prompts := testPrompts(t, 2)
	sch, first := bareSchedulerOf(t, cfg, []Request{{PromptTokens: prompts(0), MaxTokens: 24}})
	sch.states = make(chan *model.DecodeState, 1)
	r, g := sch.pool.replicas[0], &group{}
	drive := func() {
		for len(sch.ready) > 0 {
			r = sch.runSlice(r, g, <-sch.ready)
		}
	}
	gauges := func() (reserved, filled int64) { return sch.mx.kvReserved.Load(), sch.mx.kvFilled.Load() }

	r = sch.runSlice(r, g, <-sch.ready)
	_, _, rows, pitch := first[0].kv.st.KVSlabs(0)
	if horizon := len(prompts(0)) + 24; pitch != horizon {
		t.Fatalf("first session's pitch %d, want its horizon %d", pitch, horizon)
	}
	if res, fil := gauges(); res != int64(pitch)*sch.kvRowBytes || fil != int64(rows)*sch.kvRowBytes {
		t.Fatalf("live session of %d rows at pitch %d: gauges reserved %d filled %d", rows, pitch, res, fil)
	}
	drive()
	recycled := <-sch.states
	sch.states <- recycled
	slab, _, _, _ := recycled.KVSlabs(0)
	if res, fil := gauges(); res != int64(pitch)*sch.kvRowBytes || fil != 0 {
		t.Fatalf("state recycled at pitch %d: gauges reserved %d filled %d", pitch, res, fil)
	}

	probe := &Session{}
	shorter := len(prompts(1)) + 8
	if shorter > pitch {
		t.Fatalf("second horizon %d exceeds the recycled pitch %d", shorter, pitch)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		probe.kv.obtain(sch, r.m, shorter, nil)
		sch.states <- probe.kv.st
	}); allocs != 0 {
		t.Fatalf("taking a recycled state for a covered horizon allocates %.1f objects, want 0", allocs)
	}

	second := admitBare(t, sch, []Request{{PromptTokens: prompts(1), MaxTokens: 8}})[0]
	r = sch.runSlice(r, g, <-sch.ready)
	if k, _, _, p := second.kv.st.KVSlabs(0); &k[0] != &slab[0] || p != pitch {
		t.Fatalf("second session on a new slab (pitch %d, recycled %d)", p, pitch)
	}
	drive()
	if res, fil := gauges(); res != int64(pitch)*sch.kvRowBytes || fil != 0 {
		t.Fatalf("after the second session: gauges reserved %d filled %d, want %d and 0", res, fil, int64(pitch)*sch.kvRowBytes)
	}
}

// TestExportCaptureAllocatesOnlyTheBlob pins what checkpoint export costs
// and where: a capture on the decoding worker only records a mark and
// allocates nothing; the fetch that encodes the mark allocates the envelope
// and nothing payload-sized besides — one allocation for a bare session, and
// for a protected one the bounds entries' sort adds a few small ones.
func TestExportCaptureAllocatesOnlyTheBlob(t *testing.T) {
	cfg := testConfig(t)
	cfg.ExportStride = 8
	prompt := testPrompts(t, 1)(0)
	sch, sessions := bareSchedulerOf(t, cfg, []Request{
		{PromptTokens: prompt, MaxTokens: 40, SessionID: "bare"},
		{PromptTokens: prompt, MaxTokens: 40, Protected: true, SessionID: "protected"},
	})
	r, g := sch.pool.replicas[0], &group{}
	for i := 0; i < 4; i++ {
		r = sch.runSlice(r, g, <-sch.ready)
	}
	for _, s := range sessions {
		if !s.started || s.kv.st == nil {
			t.Fatalf("session %s not decoding", s.req.SessionID)
		}
		id := s.req.SessionID
		if allocs := testing.AllocsPerRun(20, func() { s.kv.mark(sch, r.m, &s.ftState) }); allocs != 0 {
			t.Errorf("%s capture allocates %.1f objects, want 0", id, allocs)
		}
		blob, _, err := sch.exportFor(id)
		if err != nil {
			t.Fatal(err)
		}
		fetch := func() {
			s.kv.mark(sch, r.m, &s.ftState) // a new mark, so the fetch encodes again
			if _, _, err := sch.exportFor(id); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(20, fetch)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const n = 20
		for i := 0; i < n; i++ {
			fetch()
		}
		runtime.ReadMemStats(&m1)
		perFetch := float64(m1.TotalAlloc-m0.TotalAlloc) / n
		if !s.req.Protected && allocs != 1 {
			t.Errorf("bare fetch allocates %.1f objects, want 1 (the blob)", allocs)
		}
		if perFetch > 1.25*float64(len(blob)) {
			t.Errorf("%s fetch allocates %.0f bytes for a %d-byte blob", id, perFetch, len(blob))
		}
		again := testing.AllocsPerRun(20, func() { sch.exportFor(id) })
		if again != 0 {
			t.Errorf("%s fetch of an encoded mark allocates %.1f objects, want 0", id, again)
		}
	}
}

// BenchmarkExportCapture times checkpoint export of a decoding
// llama2-7b-sim session at 64 KV rows, bare and protected: capture, the
// mark the worker records between two decode steps every -export-stride
// tokens, and fetch, a mark and the encoding /v1/sessions/export then does
// on its own goroutine. -benchmem gives their allocations.
func BenchmarkExportCapture(b *testing.B) {
	for _, protected := range []bool{false, true} {
		cfg := Config{Model: "llama2-7b-sim", Seed: 7, Replicas: 1, SliceSteps: 1, ExportStride: 1 << 20}
		sch, sessions := bareSchedulerOf(b, cfg, []Request{
			{PromptTokens: testPrompts(b, 1)(0), MaxTokens: 100, Protected: protected, SessionID: "s"},
		})
		r, g, s := sch.pool.replicas[0], &group{}, sessions[0]
		for rows := 0; rows < 64; _, _, rows, _ = s.kv.st.KVSlabs(0) {
			r = sch.runSlice(r, g, <-sch.ready)
		}
		b.Run(fmt.Sprint("capture/protected=", protected), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.kv.mark(sch, r.m, &s.ftState)
			}
		})
		b.Run(fmt.Sprint("fetch/protected=", protected), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.kv.mark(sch, r.m, &s.ftState)
				sch.exportFor("s")
			}
		})
	}
}

// TestDuplicateSessionIDRefused: with export on, a session id names one
// checkpoint slot, so a second session with an id already admitted — here
// still queued behind a blocker — is refused with 409 on both admission
// endpoints instead of sharing (and later deleting or leaking) the first
// one's checkpoint. Once the first settles the id is free again.
func TestDuplicateSessionIDRefused(t *testing.T) {
	cfg := testConfig(t)
	cfg.ExportStride = 2
	cfg.MaxSessions = 1
	cfg.StepDelay = 2 * time.Millisecond
	cfg.SpillDir = t.TempDir()
	srv := newTestServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	prompt := testPrompts(t, 1)(0)
	submitAndWait(t, srv, Request{PromptTokens: prompt, MaxTokens: 4, SessionID: "parked"})
	blob, err := readSpill(cfg.SpillDir, "parked")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	blocker, err := srv.Submit(ctx, Request{PromptTokens: prompt, MaxTokens: 40})
	if err != nil {
		t.Fatal(err)
	}
	first, err := srv.Submit(ctx, Request{PromptTokens: prompt, MaxTokens: 4, SessionID: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body any) int {
		b, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	gen := Request{PromptTokens: prompt, MaxTokens: 4, SessionID: "dup"}
	if code := post("/v1/generate", gen); code != http.StatusConflict {
		t.Errorf("second /v1/generate with a queued session's id: %d, want 409", code)
	}
	imp := ImportRequest{SessionID: "dup", MaxTokensTotal: 8, Snapshot: blob}
	if code := post("/v1/sessions/import", imp); code != http.StatusConflict {
		t.Errorf("/v1/sessions/import with a queued session's id: %d, want 409", code)
	}
	for _, s := range []*Session{blocker, first} {
		if _, err := s.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if code := post("/v1/generate", gen); code != http.StatusOK {
		t.Errorf("/v1/generate with a settled session's id: %d, want 200", code)
	}
}

// TestSettledSessionCollected: once a session settled and the server is
// idle, nothing in the scheduler keeps it reachable — a worker's reused
// group slices used to hold it until a later slice overwrote the slot.
func TestSettledSessionCollected(t *testing.T) {
	srv := newTestServer(t, testConfig(t))
	sess, err := srv.Submit(context.Background(), Request{PromptTokens: testPrompts(t, 1)(0), MaxTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(sess, func(*Session) { close(collected) })
	sess = nil
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a settled session is still reachable with the server idle")
}
