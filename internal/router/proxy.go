package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"time"

	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/serve"
)

// This file is the proxy's session driver — the migration loop that makes a
// worker death invisible to the client. The protocol it rides on:
//
//   - Every session streams from its worker (NDJSON, one token per line),
//     whatever the client asked for; the router re-materializes a plain JSON
//     response for non-streaming clients.
//   - Every FetchStride relayed tokens the router pulls the session's latest
//     checkpoint (GET /v1/sessions/export) from the worker driving it.
//   - When the stream breaks, the router picks the next healthy worker in
//     ring order and resumes: from the checkpoint via POST
//     /v1/sessions/import when it has one (replaying only the tokens between
//     the checkpoint and the break), or from the original prompt when it
//     does not. Replayed tokens are verified against what was already
//     relayed — generation is deterministic, so any mismatch means state
//     corruption and fails the request rather than serving a silently
//     diverged stream.
//
// The worker-side capture ordering (checkpoint before the next decode step)
// guarantees the checkpoint never lags the relayed stream by more than one
// export stride, so the replay window is small and bounded.

// streamLine is one NDJSON line of a worker's token stream.
type streamLine struct {
	Token  *int          `json:"token"`
	Word   string        `json:"word"`
	Done   bool          `json:"done"`
	Error  string        `json:"error"`
	Result *serve.Result `json:"result"`
}

func (rt *Router) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req serve.Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Sprintf("invalid request body: %v", err))
		return
	}
	if req.SessionID == "" {
		// Sessions need stable ids for placement and checkpoint export; mint
		// one for clients that did not bring their own.
		req.SessionID = fmt.Sprintf("rt-%d-%d", os.Getpid(), rt.sessSeq.Add(1))
	}
	rt.sessions.Add(1)
	rt.driveSession(w, r, req)
}

// driveSession relays one generation to completion, failing over between
// workers as they die.
func (rt *Router) driveSession(w http.ResponseWriter, r *http.Request, req serve.Request) {
	clientStream := req.Stream
	upstream := req
	upstream.Stream = true

	var (
		received   []int  // tokens relayed to the client so far
		ckpt       []byte // latest checkpoint blob (nil until first fetch)
		ckptToks   int    // tokens the checkpoint covers
		written    bool   // client headers committed
		migrStart  time.Time
		enc        = json.NewEncoder(w)
		flusher, _ = w.(http.Flusher)
	)
	beginStream := func() {
		if clientStream && !written {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			written = true
		}
	}
	// failSession: nothing left to try. Before the first byte this is a
	// clean HTTP error; mid-stream all we can do is a terminal error line.
	failSession := func(status int, msg string) {
		rt.failures.Add(1)
		if !written {
			writeJSONError(w, status, msg)
			return
		}
		enc.Encode(map[string]interface{}{"done": true, "error": msg})
	}

	maxAttempts := 3*len(rt.workers) + 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		wk := rt.pickWorkerWait(r.Context(), req.SessionID)
		if wk == nil {
			failSession(http.StatusServiceUnavailable, "router: no healthy workers")
			return
		}

		// Resume from the checkpoint when we have one that is actually
		// ahead of the prompt and behind the budget; otherwise replay from
		// scratch. Both paths re-produce the tokens we already relayed
		// (`skip` of them), which we verify rather than forward.
		resp, skip, viaCkpt, err := rt.openStream(r.Context(), wk, &upstream, req, received, ckpt, ckptToks)
		if err != nil {
			rt.markDead(wk)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			// Draining or full: not dead, but not taking this session. On a
			// failover, a 409 (the session id is still live there — the
			// stream broke, the worker has not settled it yet) is the same.
			// Nudge it out of rotation (the prober re-adds it) and move on.
			if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests ||
				resp.StatusCode == http.StatusConflict && attempt > 0 {
				rt.markDead(wk)
				continue
			}
			// A real rejection (bad request, too long, …): the client's
			// problem, not a worker fault — pass it through verbatim.
			if !written {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(resp.StatusCode)
				w.Write(body)
			} else {
				failSession(resp.StatusCode, string(bytes.TrimSpace(body)))
			}
			return
		}
		if viaCkpt {
			rt.ckptMigr.Add(1)
		}

		done, why := rt.relayStream(w, r, resp.Body, relayState{
			req: req, worker: wk, clientStream: clientStream,
			received: &received, ckpt: &ckpt, ckptToks: &ckptToks,
			skip: skip, written: &written, migrStart: &migrStart,
			enc: enc, flusher: flusher, beginStream: beginStream,
		})
		resp.Body.Close()
		switch done {
		case relayFinished:
			return
		case relayFatal:
			failSession(http.StatusInternalServerError, why)
			return
		case relayBroken:
			// Worker died (or the connection did): fail over.
			rt.markDead(wk)
			rt.migrations.Add(1)
			migrStart = time.Now()
		}
	}
	failSession(http.StatusServiceUnavailable, "router: session failed on every worker")
}

// openStream starts (or resumes) the session on wk and returns the live
// NDJSON stream plus how many leading tokens are replays to verify-and-skip.
func (rt *Router) openStream(ctx context.Context, wk *worker, upstream *serve.Request, req serve.Request, received []int, ckpt []byte, ckptToks int) (resp *http.Response, skip int, viaCkpt bool, err error) {
	// Resume requests are driven by the worker's own spill files, which the
	// router cannot snapshot; they fail over by re-resuming from the parked
	// state (deterministic, so skip-verification still holds).
	useCkpt := ckpt != nil && ckptToks > 0 && len(received) >= ckptToks &&
		!req.Resume && req.MaxTokens-ckptToks >= 1
	if useCkpt {
		resp, err = rt.postImport(ctx, wk, req, ckpt)
		if err == nil && resp.StatusCode == http.StatusOK {
			return resp, len(received) - ckptToks, true, nil
		}
		// Import refused (e.g. checkpoint already covers the budget, or the
		// worker predates the endpoint): fall back to a fresh replay.
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
	}
	body, merr := json.Marshal(upstream)
	if merr != nil {
		return nil, 0, false, merr
	}
	hreq, herr := http.NewRequestWithContext(ctx, http.MethodPost, wk.url+"/v1/generate", bytes.NewReader(body))
	if herr != nil {
		return nil, 0, false, herr
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err = rt.cfg.Client.Do(hreq)
	if err != nil {
		return nil, 0, false, err
	}
	return resp, len(received), false, nil
}

func (rt *Router) postImport(ctx context.Context, wk *worker, req serve.Request, ckpt []byte) (*http.Response, error) {
	body, err := json.Marshal(serve.ImportRequest{
		SessionID:      req.SessionID,
		MaxTokensTotal: req.MaxTokens,
		StopAtEOS:      req.StopAtEOS,
		DeadlineMS:     req.DeadlineMS,
		Snapshot:       ckpt,
	})
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.url+"/v1/sessions/import", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	return rt.cfg.Client.Do(hreq)
}

type relayOutcome int

const (
	relayFinished relayOutcome = iota // terminal line relayed, session done
	relayBroken                       // stream died mid-generation: fail over
	relayFatal                        // unrecoverable (bit divergence)
)

type relayState struct {
	req          serve.Request
	worker       *worker
	clientStream bool
	received     *[]int
	ckpt         *[]byte
	ckptToks     *int
	skip         int
	written      *bool
	migrStart    *time.Time
	enc          *json.Encoder
	flusher      http.Flusher
	beginStream  func()
}

// relayStream pumps one worker stream: verifies replayed tokens, forwards
// fresh ones, fetches checkpoints on stride, and rewrites the terminal
// result to cover the whole session (a migrated worker only saw a suffix).
func (rt *Router) relayStream(w http.ResponseWriter, r *http.Request, body io.Reader, st relayState) (relayOutcome, string) {
	dec := json.NewDecoder(body)
	sinceFetch := 0
	for {
		var line streamLine
		if err := dec.Decode(&line); err != nil {
			return relayBroken, err.Error()
		}
		if line.Done {
			if line.Error != "" {
				// The worker itself failed the request (deadline, cancel):
				// that is a session-level verdict, not a worker death.
				rt.failures.Add(1)
				if !*st.written {
					writeJSONError(w, http.StatusInternalServerError, line.Error)
				} else {
					st.enc.Encode(map[string]interface{}{"done": true, "error": line.Error})
				}
				return relayFinished, ""
			}
			res := composeResult(line.Result, *st.received)
			if st.clientStream {
				st.beginStream()
				st.enc.Encode(map[string]interface{}{"done": true, "result": res})
			} else {
				w.Header().Set("Content-Type", "application/json")
				st.enc.Encode(res)
			}
			if st.flusher != nil {
				st.flusher.Flush()
			}
			*st.written = true
			return relayFinished, ""
		}
		if line.Token == nil {
			return relayBroken, "stream line without token"
		}
		tok := *line.Token
		if st.skip > 0 {
			// Replay window: the new worker re-emits tokens we already
			// relayed. They must match bit-for-bit.
			idx := len(*st.received) - st.skip
			if (*st.received)[idx] != tok {
				log.Printf("router: session %q diverged on replay at token %d: relayed %d, got %d",
					st.req.SessionID, idx, (*st.received)[idx], tok)
				return relayFatal, fmt.Sprintf(
					"router: replay diverged at token %d (had %d, worker produced %d)", idx, (*st.received)[idx], tok)
			}
			st.skip--
			continue
		}
		*st.received = append(*st.received, tok)
		if !st.migrStart.IsZero() {
			rt.observeMigration(float64(time.Since(*st.migrStart)) / float64(time.Millisecond))
			*st.migrStart = time.Time{}
		}
		if st.clientStream {
			st.beginStream()
			st.enc.Encode(map[string]interface{}{"token": tok, "word": line.Word})
			if st.flusher != nil {
				st.flusher.Flush()
			}
		}
		sinceFetch++
		if rt.cfg.FetchStride > 0 && sinceFetch >= rt.cfg.FetchStride && !st.req.Resume {
			if blob, toks, ok := rt.fetchCheckpoint(st.worker, st.req.SessionID); ok && toks > *st.ckptToks {
				*st.ckpt, *st.ckptToks = blob, toks
			}
			sinceFetch = 0
		}
	}
}

// composeResult rebuilds the session-wide Result from the final worker's
// terminal line: a migrated worker reports only the tokens it generated
// itself, but corrections are cumulative by construction (the fork state
// travels inside the checkpoint), so only tokens and text need stitching.
func composeResult(res *serve.Result, received []int) serve.Result {
	out := serve.Result{}
	if res != nil {
		out = *res
	}
	out.Tokens = received
	out.Text = data.Vocab().Decode(received)
	return out
}

// maxCheckpointBytes bounds a fetched checkpoint blob, and so the buffer a
// worker's Content-Length can make the router allocate: four times the K/V
// rows of the largest zoo model at full context, which leaves room for the
// envelope's token list, fork state and header.
var maxCheckpointBytes = func() int64 {
	kv := 0
	for _, c := range model.Zoo() {
		kv = max(kv, c.Blocks*2*c.MaxSeq*c.Hidden*4)
	}
	return 4 * int64(kv)
}()

// fetchCheckpoint pulls the session's latest export from the worker
// currently driving it, into one buffer of the Content-Length the worker
// declares. Failures (including 404 before the first capture, a missing or
// oversized Content-Length, and a body shorter than declared) just keep the
// previous checkpoint.
func (rt *Router) fetchCheckpoint(wk *worker, sessionID string) ([]byte, int, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		wk.url+"/v1/sessions/export?id="+sessionID, nil)
	if err != nil {
		return nil, 0, false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return nil, 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, 0, false
	}
	n := resp.ContentLength
	if n < 0 || n > maxCheckpointBytes {
		return nil, 0, false
	}
	blob := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, blob); err != nil {
		return nil, 0, false
	}
	toks, err := strconv.Atoi(resp.Header.Get("X-FT2-Checkpoint-Tokens"))
	if err != nil || toks < 1 {
		return nil, 0, false
	}
	rt.fetches.Add(1)
	return blob, toks, true
}

// pickWorkerWait polls for a healthy worker in the session's ring order,
// riding out the probe lag after a kill (a few intervals) before giving up.
func (rt *Router) pickWorkerWait(ctx context.Context, sessionID string) *worker {
	deadline := time.Now().Add(10 * rt.cfg.ProbeInterval)
	for {
		if wk := rt.pickWorker(sessionID); wk != nil {
			return wk
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(rt.cfg.ProbeInterval / 5):
		}
	}
}

func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
