package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
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
