package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"ft2/internal/chaos"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/prefixcache"
	"ft2/internal/protect"
	"ft2/internal/wire"
)

// Server is the assembled serving layer: replica pool + continuous-batching
// scheduler + HTTP surface. Build one with New, mount Handler on an
// http.Server, and call Shutdown (or BeginDrain + Shutdown) to drain.
type Server struct {
	cfg   Config
	sch   *scheduler
	mx    *metrics
	lines func() [][]byte // stream line of every token id, built on first stream
}

// New builds a Server from the config (defaults resolved; see Config).
func New(c Config) (*Server, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return nil, err
	}
	pool, err := newPool(cfg)
	if err != nil {
		return nil, err
	}
	var eng *chaos.Engine
	if cfg.Chaos != nil {
		if eng, err = chaos.NewEngine(*cfg.Chaos, cfg.ModelCfg); err != nil {
			return nil, err
		}
	}
	mx := newMetrics()
	mx.abftTier = len(cfg.ProtectPolicy.Kinds(protect.TierABFT, protect.TierABFTFT2)) > 0
	mx.dmrTier = len(cfg.ProtectPolicy.Kinds(protect.TierDMR)) > 0
	lines := sync.OnceValue(func() [][]byte { return linesFor(cfg.ModelCfg.Vocab) })
	return &Server{cfg: cfg, sch: newScheduler(cfg, pool, mx, eng), mx: mx, lines: lines}, nil
}

// TokenLines returns the NDJSON stream line of every token id below n —
// what encoding/json makes of {"token": id, "word": word}, newline
// included — so a stream writes each token as one copy.
func TokenLines(n int) [][]byte {
	vocab := data.Vocab()
	lines := make([][]byte, n)
	for tok := range lines {
		var b bytes.Buffer
		json.NewEncoder(&b).Encode(map[string]interface{}{"token": tok, "word": vocab.Word(tok)})
		lines[tok] = b.Bytes()
	}
	return lines
}

// zooLines returns the stream lines of every id a zoo model can emit,
// built on first use: a process that never streams does not hold them.
var zooLines = sync.OnceValue(func() [][]byte {
	n := 0
	for _, c := range model.Zoo() {
		n = max(n, c.Vocab)
	}
	return TokenLines(n)
})

// linesFor returns the stream lines of a vocabulary of n ids: a prefix of
// the zoo's when that covers them.
func linesFor(n int) [][]byte {
	if zoo := zooLines(); n <= len(zoo) {
		return zoo[:n]
	}
	return TokenLines(n)
}

var tokenPrefix = []byte(`{"token":`)

// TokenOf returns the id of a line that is byte for byte the stream line a
// zoo model's Server writes for that id, and false for any other line — so
// a relay can forward such a line as read instead of decoding it.
func TokenOf(line []byte) (int, bool) {
	digits, ok := bytes.CutPrefix(line, tokenPrefix)
	if !ok {
		return 0, false
	}
	tok, n := 0, 0
	for ; n < len(digits) && n < 6 && '0' <= digits[n] && digits[n] <= '9'; n++ {
		tok = 10*tok + int(digits[n]-'0')
	}
	if zoo := zooLines(); n == 0 || tok >= len(zoo) || !bytes.Equal(line, zoo[tok]) {
		return 0, false
	}
	return tok, true
}

// Chaos returns the server's chaos engine (nil when chaos is off) — the
// chaos tests read its journal and counters through it.
func (s *Server) Chaos() *chaos.Engine { return s.sch.chaos }

// Config returns the effective (default-resolved) configuration.
func (s *Server) Config() Config { return s.cfg }

// Submit validates a request and admits it to the scheduler — the
// programmatic entry the HTTP handler, the RunLoad load generator, and
// the benchmarks share. The ctx bounds the whole request (client
// disconnect); the request's own deadline is layered on top.
func (s *Server) Submit(ctx context.Context, req Request) (*Session, error) {
	if req.Resume {
		return s.submitResume(ctx, req)
	}
	prompt, err := req.resolvePrompt(s.cfg.ModelCfg)
	if err != nil {
		return nil, err
	}
	return s.sch.submit(ctx, req, prompt)
}

// submitResume restores a parked session from the spill directory and
// admits it to generate req.MaxTokens further tokens from its stop point.
func (s *Server) submitResume(ctx context.Context, req Request) (*Session, error) {
	if s.cfg.SpillDir == "" {
		return nil, &apiError{Status: 404, Msg: "serve: session parking disabled (no -spill-dir)"}
	}
	if req.SessionID == "" {
		return nil, badRequest("resume requires session_id")
	}
	if len(req.PromptTokens) > 0 || req.Text != "" || req.Dataset != "" {
		return nil, badRequest("resume takes no prompt — the parked state is the prompt")
	}
	if req.MaxTokens < 1 {
		return nil, badRequest("max_tokens must be ≥ 1, got %d", req.MaxTokens)
	}
	blob, err := readSpill(s.cfg.SpillDir, req.SessionID)
	if err != nil {
		return nil, err
	}
	snap, fk, err := wire.DecodeSessionFor(blob, s.cfg.ModelCfg)
	if err != nil {
		return nil, badRequest("parked session %q: %v", req.SessionID, err)
	}
	if err := validateAdoptable(snap, s.cfg.ModelCfg, req.MaxTokens); err != nil {
		return nil, err
	}
	req.Protected = fk != nil
	return s.sch.submitAdopted(ctx, req, snap, fk, adoptSpill)
}

// BeginDrain stops admitting new requests; in-flight and queued requests
// keep running. Idempotent.
func (s *Server) BeginDrain() { s.sch.beginDrain() }

// Shutdown drains and stops the scheduler: admission closes, every
// admitted request is given until ctx expires to finish (then failed
// fast), and the workers exit. Returns ctx.Err() when the grace period
// lapsed. The chaos journal (if any) is flushed and closed last, so every
// injection of the run is on disk when Shutdown returns.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.sch.shutdown(ctx)
	if s.sch.chaos != nil {
		if cerr := s.sch.chaos.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Handler returns the HTTP surface:
//
//	POST /v1/generate         — run a (protected) generation, optionally streamed
//	GET  /v1/models           — the zoo, with the served model marked
//	GET  /v1/sessions/export  — latest migration checkpoint of a live session
//	POST /v1/sessions/import  — adopt a checkpoint and stream the remainder
//	GET  /healthz             — readiness: 200 serving / 503 draining
//	GET  /livez               — liveness: 200 while the process runs
//	GET  /metrics             — text-format counters and latency quantiles
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/models", s.handleModels)
	mux.HandleFunc("/v1/sessions/export", s.handleSessionExport)
	mux.HandleFunc("/v1/sessions/import", s.handleSessionImport)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/livez", s.handleLivez)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// writeError answers with the request's error as JSON and records the
// status. Only submit-path failures are recorded here; settled sessions
// are recorded by the scheduler.
func (s *Server) writeError(w http.ResponseWriter, err error, record bool) {
	status := errStatus(err)
	if record {
		s.mx.incStatus(status)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// MaxGenerateBody bounds a /v1/generate body. A legitimate one is a few KB
// at MaxSeq 256.
const MaxGenerateBody = 1 << 20

// maxImportBody bounds a /v1/sessions/import body: the largest session
// envelope of the served model, ×4/3 for its base64 encoding in the JSON.
func maxImportBody(cfg model.Config) int64 { return wire.MaxSessionBytes(cfg) * 4 / 3 }

// decodeBody decodes r's JSON body into v, unknown fields rejected, reading
// at most limit bytes: a longer body is a 413, a malformed one a 400.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any, what string) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if errors.As(err, new(*http.MaxBytesError)) {
		return &apiError{Status: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("%s body exceeds %d bytes", what, limit)}
	}
	if err != nil {
		return badRequest("invalid %s body: %v", what, err)
	}
	return nil
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	if err := decodeBody(w, r, MaxGenerateBody, &req, "request"); err != nil {
		s.writeError(w, err, true)
		return
	}

	sess, err := s.Submit(r.Context(), req)
	if err != nil {
		s.writeError(w, err, true)
		return
	}

	if req.Stream {
		s.streamResponse(w, r, sess)
		return
	}
	res, err := sess.Wait(r.Context())
	if err != nil {
		s.writeError(w, err, false)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// streamResponse writes one NDJSON line per token as it is decoded, then a
// terminal line carrying the full Result (or the error). Every token
// already waiting when one arrives goes out with it in a single flush. The
// terminal line is not flushed: the handler's return sends it with the
// stream's end, so a client that stops reading at it can reuse the
// connection.
func (s *Server) streamResponse(w http.ResponseWriter, r *http.Request, sess *Session) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	lines, toks := s.lines(), sess.Tokens()
	for tok := range toks {
		w.Write(lines[tok])
		for n := len(toks); n > 0; n-- { // this goroutine is the only receiver
			w.Write(lines[<-toks])
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	res, err := sess.Wait(r.Context())
	if err != nil {
		enc.Encode(map[string]interface{}{"done": true, "error": err.Error()})
	} else {
		enc.Encode(map[string]interface{}{"done": true, "result": res})
	}
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type modelInfo struct {
		Name    string `json:"name"`
		Family  string `json:"family"`
		Blocks  int    `json:"blocks"`
		Hidden  int    `json:"hidden"`
		MaxSeq  int    `json:"max_seq"`
		Serving bool   `json:"serving"`
	}
	out := struct {
		Serving string      `json:"serving"`
		Models  []modelInfo `json:"models"`
	}{Serving: s.cfg.Model}
	for _, c := range model.Zoo() {
		out.Models = append(out.Models, modelInfo{
			Name: c.Name, Family: c.Family.String(), Blocks: c.Blocks,
			Hidden: c.Hidden, MaxSeq: c.MaxSeq, Serving: c.Name == s.cfg.Model,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handleHealthz is READINESS: it answers 503 the moment the server stops
// being a correct routing target (draining refuses admission with 503s), so
// a router health-checking this endpoint never places a session on a worker
// that will refuse it. The pre-build window is covered by StartupGate,
// which answers 503 here until New has finished building the replicas.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mx.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleLivez is LIVENESS: 200 whenever the process can answer at all —
// including while draining, when readiness is already 503. Supervisors
// restart on livez failures and stop routing on healthz failures.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	fmt.Fprintln(w, "ok")
}

// handleSessionExport serves the latest migration checkpoint of a live
// session as a wire-format blob; X-FT2-Checkpoint-Tokens carries how many
// tokens it covers. 404 when export is disabled, the session is unknown, or
// it already settled (its checkpoint dies with it).
func (s *Server) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.ExportStride <= 0 {
		s.writeError(w, &apiError{Status: 404, Msg: "serve: session export disabled (-export-stride 0)"}, false)
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeError(w, badRequest("missing id parameter"), false)
		return
	}
	e, ok := s.sch.exportFor(id)
	if !ok {
		s.writeError(w, &apiError{Status: 404, Msg: fmt.Sprintf("serve: no checkpoint for session %q", id)}, false)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.blob)))
	w.Header().Set("X-FT2-Checkpoint-Tokens", strconv.Itoa(e.tokens))
	w.Write(e.blob)
}

// ImportRequest is the POST /v1/sessions/import body: a wire-format blob
// (base64 in JSON, per Go []byte marshaling) plus the generation's original
// total token budget. The worker adopts the snapshot and streams the
// remaining max_tokens_total − checkpointed tokens as NDJSON — the indices
// continue the original stream, so a router relays the suffix verbatim.
type ImportRequest struct {
	SessionID      string `json:"session_id"`
	MaxTokensTotal int    `json:"max_tokens_total"`
	StopAtEOS      bool   `json:"stop_at_eos,omitempty"`
	DeadlineMS     int    `json:"deadline_ms,omitempty"`
	Snapshot       []byte `json:"snapshot"`
}

func (s *Server) handleSessionImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var ir ImportRequest
	if err := decodeBody(w, r, maxImportBody(s.cfg.ModelCfg), &ir, "import"); err != nil {
		s.writeError(w, err, true)
		return
	}
	if ir.SessionID == "" {
		s.writeError(w, badRequest("import requires session_id"), true)
		return
	}
	snap, fk, err := wire.DecodeSessionFor(ir.Snapshot, s.cfg.ModelCfg)
	if err != nil {
		s.writeError(w, badRequest("snapshot rejected: %v", err), true)
		return
	}
	remaining := ir.MaxTokensTotal - snap.NextStep()
	if err := validateAdoptable(snap, s.cfg.ModelCfg, remaining); err != nil {
		s.writeError(w, err, true)
		return
	}
	req := Request{
		SessionID:  ir.SessionID,
		MaxTokens:  remaining,
		Protected:  fk != nil,
		Stream:     true,
		StopAtEOS:  ir.StopAtEOS,
		DeadlineMS: ir.DeadlineMS,
	}
	sess, err := s.sch.submitAdopted(r.Context(), req, snap, fk, adoptImport)
	if err != nil {
		s.writeError(w, err, true)
		return
	}
	s.streamResponse(w, r, sess)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var cc *chaos.Counters
	if s.sch.chaos != nil {
		c := s.sch.chaos.Counters()
		cc = &c
	}
	var ps *prefixcache.Stats
	if s.sch.prefix != nil {
		st := s.sch.prefix.Stats()
		ps = &st
	}
	s.mx.render(w, s.cfg.Model, s.cfg.Replicas, s.cfg.MaxSessions, s.cfg.BatchMax,
		s.sch.queueDepth(), s.sch.activeSessions(), cc, ps)
}

// PrefixStats returns the prefix cache's counters, or zero stats when the
// cache is off — the tests and benchmarks assert hit/insert behaviour
// through it.
func (s *Server) PrefixStats() prefixcache.Stats {
	if s.sch.prefix == nil {
		return prefixcache.Stats{}
	}
	return s.sch.prefix.Stats()
}

// PrefillCounters returns (computed prefill tokens, total prompt tokens,
// prefill chunks run); the prefix tests and the repository benchmark
// (serve.prefill_computed_frac) derive the computed-vs-total prefill ratio
// from deltas of these.
func (s *Server) PrefillCounters() (prefill, prompt, chunks int64) {
	return s.mx.prefillTokens.Load(), s.mx.promptTokens.Load(), s.mx.prefillChunks.Load()
}
