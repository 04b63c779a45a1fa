package serve

import (
	"fmt"
	"hash/fnv"
	"log"
	"os"
	"path/filepath"
	"runtime/debug"
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
type exportEntry struct {
	blob   []byte
	tokens int
}

// exporting reports whether the session participates in checkpoint export.
func (sch *scheduler) exporting(s *Session) bool {
	return sch.cfg.ExportStride > 0 && s.req.SessionID != ""
}

// exportFor returns the latest checkpoint for a session id.
func (sch *scheduler) exportFor(id string) (exportEntry, bool) {
	sch.exportMu.Lock()
	e, ok := sch.exports[id]
	sch.exportMu.Unlock()
	return e, ok
}

// captureExport checkpoints the session's current state (KV rows + resume
// point, plus the fork state for protected sessions) into the export store.
// Called by the owning worker between steps; the replica's resident state is
// preserved around the capture, so it is safe both mid-batch and while the
// session's state is already swapped in (prefill completion).
func (sch *scheduler) captureExport(r *replica, s *Session) {
	blob, err := sch.encodeSessionState(r, s)
	if err != nil {
		log.Printf("serve: session %q checkpoint export failed: %v", s.req.SessionID, err)
		return
	}
	sch.exportMu.Lock()
	sch.exports[s.req.SessionID] = exportEntry{blob: blob, tokens: s.exportSnap.NextStep()}
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

// encodeSessionState checkpoints s on replica r and encodes it (with the
// protected fork state) into a wire blob, reusing s.exportSnap's buffers.
func (sch *scheduler) encodeSessionState(r *replica, s *Session) ([]byte, error) {
	if s.exportSnap == nil {
		s.exportSnap = &model.Snapshot{}
	}
	m := r.m
	prev := m.SwapState(s.state)
	m.Checkpoint(s.exportSnap)
	m.SwapState(prev)
	var fk *core.ForkState
	if s.req.Protected {
		fk = &s.ftState
	}
	return wire.EncodeSession(s.exportSnap, fk)
}

// adoptGuarded is the adoption counterpart of prefillGuarded: the session's
// first slice restores its snapshot into (recycled) state, installs the
// fork state and the correction base, and leaves the session decode-ready.
// The snapshot was validated at the serve boundary (DecodeSessionFor +
// validateAdoptable), so Restore's panic paths are unreachable; the recover
// keeps an engine surprise inside the 500 boundary regardless.
func (sch *scheduler) adoptGuarded(r *replica, s *Session) (err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: panic in session adoption: %v\n%s", p, debug.Stack())
			err = &apiError{Status: 500,
				Msg: fmt.Sprintf("serve: internal error: %v", p)}
		}
	}()
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
