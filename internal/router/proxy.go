package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
	"ft2/internal/wire"
)

// This file is the proxy's session driver — the migration loop that makes a
// worker death invisible to the client. The protocol it rides on:
//
//   - Every session streams from its worker (NDJSON, one token per line),
//     whatever the client asked for; the router re-materializes a plain JSON
//     response for non-streaming clients.
//   - Every FetchStride relayed tokens, once the relay has caught up with
//     the stream, the router pulls the session's latest checkpoint (GET
//     /v1/sessions/export) from the worker driving it. It keeps the one
//     before too: a checkpoint can cover tokens the client has not been
//     sent when the stream breaks, and cannot resume the session then.
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, serve.MaxGenerateBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSONError(w, status, fmt.Sprintf("invalid request body: %v", err))
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

// session is one client generation as the router drives it across workers.
type session struct {
	w         http.ResponseWriter
	req       serve.Request // as the client sent it: Stream is the client's
	received  []int         // tokens relayed to the client so far
	ckpt      []byte        // latest checkpoint blob (nil until first fetch)
	ckptToks  int           // tokens the checkpoint covers
	prev      []byte        // the checkpoint before it
	prevToks  int           // tokens that one covers
	written   bool          // client headers committed
	migrStart time.Time
}

// beginStream commits a streaming client's headers before its first line.
func (s *session) beginStream() {
	if s.req.Stream && !s.written {
		s.w.Header().Set("Content-Type", "application/x-ndjson")
		s.w.WriteHeader(http.StatusOK)
		s.written = true
	}
}

// fail ends a session there is nothing left to try for. Before the first
// byte this is a clean HTTP error; mid-stream all we can do is a terminal
// error line.
func (rt *Router) fail(s *session, status int, msg string) {
	rt.failures.Add(1)
	if !s.written {
		writeJSONError(s.w, status, msg)
		return
	}
	json.NewEncoder(s.w).Encode(map[string]interface{}{"done": true, "error": msg})
}

// driveSession relays one generation to completion, failing over between
// workers as they die.
func (rt *Router) driveSession(w http.ResponseWriter, r *http.Request, req serve.Request) {
	s := &session{w: w, req: req}

	maxAttempts := 3*len(rt.workers) + 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		wk := rt.pickWorkerWait(r.Context(), req.SessionID)
		if wk == nil {
			rt.fail(s, http.StatusServiceUnavailable, "router: no healthy workers")
			return
		}

		// Resume from the checkpoint when we have one that is actually
		// ahead of the prompt and behind the budget; otherwise replay from
		// scratch. Both paths re-produce the tokens we already relayed
		// (`skip` of them), which we verify rather than forward.
		resp, skip, err := rt.openStream(r.Context(), wk, s)
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
			if !s.written {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(resp.StatusCode)
				w.Write(body)
			} else {
				rt.fail(s, resp.StatusCode, string(bytes.TrimSpace(body)))
			}
			return
		}

		done, why := rt.relayStream(s, wk, resp.Body, skip)
		resp.Body.Close()
		switch done {
		case relayFinished:
			return
		case relayFatal:
			rt.fail(s, http.StatusInternalServerError, why)
			return
		case relayBroken:
			// Worker died (or the connection did): fail over.
			rt.markDead(wk)
			rt.migrations.Add(1)
			s.migrStart = time.Now()
		}
	}
	rt.fail(s, http.StatusServiceUnavailable, "router: session failed on every worker")
}

// openStream starts (or resumes) the session on wk and returns the live
// NDJSON stream plus how many leading tokens are replays to verify-and-skip.
func (rt *Router) openStream(ctx context.Context, wk *worker, s *session) (*http.Response, int, error) {
	// A checkpoint fetched while the worker ran ahead of the relay may
	// cover tokens the client was never sent; the one before it resumes.
	if s.ckptToks > len(s.received) {
		s.ckpt, s.ckptToks = s.prev, s.prevToks
	}
	// Resume requests are driven by the worker's own spill files, which the
	// router cannot snapshot; they fail over by re-resuming from the parked
	// state (deterministic, so skip-verification still holds).
	if s.ckpt != nil && s.ckptToks > 0 && len(s.received) >= s.ckptToks &&
		!s.req.Resume && s.req.MaxTokens-s.ckptToks >= 1 {
		resp, err := rt.post(ctx, wk, "/v1/sessions/import", serve.ImportRequest{
			SessionID:      s.req.SessionID,
			MaxTokensTotal: s.req.MaxTokens,
			StopAtEOS:      s.req.StopAtEOS,
			DeadlineMS:     s.req.DeadlineMS,
			Snapshot:       s.ckpt,
		})
		if err == nil && resp.StatusCode == http.StatusOK {
			rt.ckptMigr.Add(1)
			return resp, len(s.received) - s.ckptToks, nil
		}
		// Import refused (e.g. checkpoint already covers the budget, or the
		// worker predates the endpoint): fall back to a fresh replay.
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
	}
	upstream := s.req
	upstream.Stream = true
	resp, err := rt.post(ctx, wk, "/v1/generate", upstream)
	return resp, len(s.received), err
}

// post sends v to one of wk's endpoints as a JSON body.
func (rt *Router) post(ctx context.Context, wk *worker, path string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, wk.url+path, bytes.NewReader(body))
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

// relayStream pumps one worker stream: verifies the first skip tokens as
// replays, forwards fresh ones, fetches checkpoints on stride, and rewrites
// the terminal result to cover the whole session (a migrated worker only
// saw a suffix). A token line that is byte for byte the worker's line for
// its id is forwarded as read; any other line is decoded. The relay acts
// only once it has caught up — nothing read but not yet relayed: then it
// flushes to the client and, when one is due, fetches a checkpoint.
func (rt *Router) relayStream(s *session, wk *worker, body io.Reader, skip int) (relayOutcome, string) {
	br := bufio.NewReader(body)
	sinceFetch := 0
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull { // a terminal line longer than the buffer
			head := bytes.Clone(line) // the reader's buffer, which the next read overwrites
			rest, rerr := br.ReadBytes('\n')
			line, err = append(head, rest...), rerr
		}
		if len(line) == 0 {
			return relayBroken, err.Error()
		}
		tok, verbatim := serve.TokenOf(line)
		var sl streamLine
		if !verbatim {
			if err := json.Unmarshal(line, &sl); err != nil {
				return relayBroken, err.Error()
			}
			switch {
			case sl.Done && sl.Error != "":
				// The worker itself failed the request (deadline, cancel):
				// that is a session-level verdict, not a worker death.
				rt.fail(s, http.StatusInternalServerError, sl.Error)
				return relayFinished, ""
			case sl.Done:
				// Not flushed: the handler's return sends this line with the
				// stream's end, so a client that stops reading at it still
				// leaves a connection it can reuse.
				var v any = composeResult(sl.Result, s.received)
				if s.req.Stream {
					s.beginStream()
					v = map[string]interface{}{"done": true, "result": v}
				} else {
					s.w.Header().Set("Content-Type", "application/json")
				}
				json.NewEncoder(s.w).Encode(v)
				return relayFinished, ""
			case sl.Token == nil:
				return relayBroken, "stream line without token"
			}
			tok = *sl.Token
		}
		if skip > 0 {
			// Replay window: the new worker re-emits tokens we already
			// relayed. They must match bit-for-bit.
			idx := len(s.received) - skip
			if s.received[idx] != tok {
				log.Printf("router: session %q diverged on replay at token %d: relayed %d, got %d",
					s.req.SessionID, idx, s.received[idx], tok)
				return relayFatal, fmt.Sprintf(
					"router: replay diverged at token %d (had %d, worker produced %d)", idx, s.received[idx], tok)
			}
			skip--
			continue
		}
		s.received = append(s.received, tok)
		if !s.migrStart.IsZero() {
			rt.observeMigration(float64(time.Since(s.migrStart)) / float64(time.Millisecond))
			s.migrStart = time.Time{}
		}
		if s.req.Stream {
			s.beginStream()
			if verbatim {
				s.w.Write(line)
			} else {
				json.NewEncoder(s.w).Encode(map[string]interface{}{"token": tok, "word": sl.Word})
			}
		}
		sinceFetch++
		if br.Buffered() > 0 {
			continue
		}
		if f, ok := s.w.(http.Flusher); ok && s.req.Stream {
			f.Flush()
		}
		if rt.cfg.FetchStride > 0 && sinceFetch >= rt.cfg.FetchStride && !s.req.Resume {
			if blob, toks, ok := rt.fetchCheckpoint(wk, s.req.SessionID); ok && toks > s.ckptToks {
				s.prev, s.prevToks, s.ckpt, s.ckptToks = s.ckpt, s.ckptToks, blob, toks
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
// worker's Content-Length can make the router allocate: the largest
// session envelope of any zoo model.
var maxCheckpointBytes = func() (n int64) {
	for _, c := range model.Zoo() {
		n = max(n, wire.MaxSessionBytes(c))
	}
	return n
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
