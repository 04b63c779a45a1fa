package serve

import (
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/wire"
)

// This file is the scheduler's cluster surface: migration-checkpoint
// capture for /v1/sessions/export, snapshot adoption for
// /v1/sessions/import and spill resume, and the durable-parking writer.
//
// Capture ordering guarantee (what makes router-driven migration lossless):
// the worker goroutine that emitted token k runs any due checkpoint capture
// before the next decode step can emit k+1, so once a router has received
// token k+1 over the stream, GET /v1/sessions/export observes a checkpoint
// covering ≥ k+1−ExportStride tokens. The router therefore never has to
// replay more than one stride plus the tokens it already relayed.

// exportEntry is one session's latest migration checkpoint: the encoded
// wire blob and how many tokens it covers (Snapshot.NextStep at capture).
// A session holds its id's entry from admission to settle; blob is nil until
// the first capture.
type exportEntry struct {
	blob   []byte
	tokens int
}

// exporting reports whether the session participates in checkpoint export.
func (sch *scheduler) exporting(s *Session) bool {
	return sch.cfg.ExportStride > 0 && s.req.SessionID != ""
}

// claimExport reserves the session's id in the export store at admission.
// Two sessions with one id would share one checkpoint slot — the first to
// settle deleting the other's, a failover importing the other's state — so a
// second admitted or live session with the id is refused with 409.
func (sch *scheduler) claimExport(s *Session) error {
	if !sch.exporting(s) {
		return nil
	}
	sch.exportMu.Lock()
	defer sch.exportMu.Unlock()
	if _, taken := sch.exports[s.req.SessionID]; taken {
		return &apiError{Status: http.StatusConflict,
			Msg: fmt.Sprintf("serve: session %q is already admitted on this worker", s.req.SessionID)}
	}
	sch.exports[s.req.SessionID] = exportEntry{}
	return nil
}

// dropExport frees the session's id and its checkpoint.
func (sch *scheduler) dropExport(s *Session) {
	if sch.exporting(s) {
		sch.exportMu.Lock()
		delete(sch.exports, s.req.SessionID)
		sch.exportMu.Unlock()
	}
}

// exportFor returns the latest checkpoint for a session id.
func (sch *scheduler) exportFor(id string) (exportEntry, bool) {
	sch.exportMu.Lock()
	e, ok := sch.exports[id]
	sch.exportMu.Unlock()
	return e, ok && e.blob != nil
}

// captureExport encodes the session's current state (KV rows + resume
// point, plus the fork state for protected sessions) into the export store.
// Called by the owning worker between steps, mid-batch or right after the
// prefill completed.
func (sch *scheduler) captureExport(r *replica, s *Session) {
	blob, err := sch.encodeSessionState(r, s)
	if err != nil {
		log.Printf("serve: session %q checkpoint export failed: %v", s.req.SessionID, err)
		return
	}
	sch.exportMu.Lock()
	sch.exports[s.req.SessionID] = exportEntry{blob: blob, tokens: s.state.Step() + 1}
	sch.exportMu.Unlock()
	sch.mx.ckptExports.Add(1)
}

// maybeSpill parks a successfully finished session's final state to the
// spill directory (durable parking). A later {"resume":true} request — to
// this process or a restarted one — picks the generation up from exactly
// this point. Failures are logged, never fail the request: parking is a
// best-effort bonus on top of a response already produced.
func (sch *scheduler) maybeSpill(r *replica, s *Session) {
	if sch.cfg.SpillDir == "" || s.req.SessionID == "" || !s.started {
		return
	}
	blob, err := sch.encodeSessionState(r, s)
	if err == nil {
		err = writeSpill(sch.cfg.SpillDir, s.req.SessionID, blob)
	}
	if err != nil {
		log.Printf("serve: session %q spill failed: %v", s.req.SessionID, err)
		return
	}
	sch.mx.sessSpilled.Add(1)
}

// encodeSessionState encodes s's live state (with the protected fork state)
// into a wire blob straight from its KV slabs, through a model.View: the blob
// is the only allocation. The owning worker calls it between steps, so the
// view cannot change under the encoder.
func (sch *scheduler) encodeSessionState(r *replica, s *Session) ([]byte, error) {
	r.m.View(s.state, &r.view)
	var fk *core.ForkState
	if s.req.Protected {
		fk = &s.ftState
	}
	return wire.EncodeSession(&r.view, fk)
}

// adoptGuarded is the adoption counterpart of openPrefill: the session's
// first slice restores its snapshot into (recycled) state, installs the
// fork state and the correction base, and leaves the session decode-ready.
// The snapshot was validated at the serve boundary (DecodeSessionFor +
// validateAdoptable), so Restore's panic paths are unreachable; the recover
// keeps an engine surprise inside the 500 boundary regardless.
func (sch *scheduler) adoptGuarded(r *replica, s *Session) (err error) {
	defer recoverAs500(&err, "in session adoption")
	m := r.m
	if s.state == nil {
		s.state = sch.obtainState(r)
	}
	prev := m.SwapState(s.state)
	m.Restore(s.adoptSnap)
	m.SwapState(prev)
	s.lastTok = s.adoptSnap.LastToken()
	s.lastExport = s.adoptSnap.NextStep()
	s.started, s.prefillStarted = true, true
	s.startAt = time.Now()
	sch.mx.queueLat.observe(msSince(s.admitted, s.startAt))
	if s.adoptFT != nil {
		// The arriving counters are cumulative across the session's whole
		// life (the response must match the single-process oracle); corrBase
		// keeps server-level metrics to this process's delta.
		s.ftState = *s.adoptFT
		s.corrBase = core.ForkState{
			FirstTokenNaN: s.adoptFT.FirstTokenNaN,
			Stats:         s.adoptFT.Stats,
			ByKind:        s.adoptFT.ByKind,
		}
	}
	switch s.adoptKind {
	case adoptImport:
		sch.mx.sessImported.Add(1)
	case adoptSpill:
		sch.mx.sessRestored.Add(1)
	}
	s.adoptSnap, s.adoptFT = nil, nil
	return nil
}

// validateAdoptable rejects snapshots the scheduler could not adopt: prefix
// views without a resume point, tokens outside the vocabulary, and resumes
// whose extra token budget would overrun the KV capacity. Everything here
// would panic inside the engine; at this boundary it is a 4xx.
func validateAdoptable(snap *model.Snapshot, cfg model.Config, extraTokens int) error {
	if snap.NextStep() < 1 {
		return badRequest("snapshot is a prefix view (no resume point)")
	}
	if tok := snap.LastToken(); tok < 0 || tok >= cfg.Vocab {
		return badRequest("snapshot resume token %d outside vocabulary [0,%d)", tok, cfg.Vocab)
	}
	if extraTokens < 1 {
		return badRequest("no tokens left to generate from this snapshot")
	}
	if extraTokens > cfg.MaxSeq-snap.Rows() {
		return badRequest("snapshot rows (%d) + requested tokens (%d) exceed the model's max sequence %d",
			snap.Rows(), extraTokens, cfg.MaxSeq)
	}
	return nil
}

// spillPath maps a session id to its parking file. Ids are hashed so an
// arbitrary client string can never traverse outside the spill dir.
func spillPath(dir, id string) string {
	h := fnv.New64a()
	h.Write([]byte(id))
	return filepath.Join(dir, fmt.Sprintf("%016x.ft2s", h.Sum64()))
}

// writeSpill atomically replaces the session's parking file (temp file +
// rename, so a crash or a concurrent resume never sees a torn blob).
func writeSpill(dir, id string, blob []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "spill-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), spillPath(dir, id)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readSpill loads a parked session's blob; missing files surface as 404.
func readSpill(dir, id string) ([]byte, error) {
	blob, err := os.ReadFile(spillPath(dir, id))
	if os.IsNotExist(err) {
		return nil, &apiError{Status: 404, Msg: fmt.Sprintf("serve: no parked session %q", id)}
	}
	return blob, err
}
