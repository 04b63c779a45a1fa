package serve

import (
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"os"
	"path/filepath"

	"ft2/internal/model"
)

// This file is the scheduler's cluster surface: session ids for
// /v1/sessions/export (the marks are each session's kvLease's), the checks on
// a snapshot that /v1/sessions/import and spill resume adopt (the scheduler's
// open restores it), and the spill writer.

// claimExport registers an exporting session's lease — export on, a session
// id — under its id at admission. Two sessions with one id would share it —
// the first to settle deleting the other's, a failover importing the other's
// state — so a second admitted or live session with the id is refused (409).
func (sch *scheduler) claimExport(s *Session) error {
	if sch.cfg.ExportStride <= 0 || s.req.SessionID == "" {
		return nil
	}
	sch.exportMu.Lock()
	defer sch.exportMu.Unlock()
	if _, taken := sch.exports[s.req.SessionID]; taken {
		return &apiError{Status: http.StatusConflict,
			Msg: fmt.Sprintf("serve: session %q is already admitted on this worker", s.req.SessionID)}
	}
	s.kv.exported = true
	sch.exports[s.req.SessionID] = &s.kv
	return nil
}

// dropExport frees the session's id; the lease's recycle drops its mark.
func (sch *scheduler) dropExport(s *Session) {
	if s.kv.exported {
		sch.exportMu.Lock()
		delete(sch.exports, s.req.SessionID)
		sch.exportMu.Unlock()
	}
}

// exportFor returns the encoding of the latest mark of a live session id and
// how many tokens it covers: a 404 before the first mark and after settle, a
// 500 when the mark does not encode.
func (sch *scheduler) exportFor(id string) ([]byte, int, error) {
	sch.exportMu.Lock()
	l := sch.exports[id]
	sch.exportMu.Unlock()
	if l != nil {
		blob, tokens, err := l.encode(sch)
		if err != nil {
			return nil, 0, &apiError{Status: http.StatusInternalServerError,
				Msg: fmt.Sprintf("serve: session %q checkpoint: %v", id, err)}
		}
		if blob != nil {
			return blob, tokens, nil
		}
	}
	return nil, 0, &apiError{Status: http.StatusNotFound, Msg: fmt.Sprintf("serve: no checkpoint for session %q", id)}
}

// maybeSpill parks a successfully finished session's final state to the
// spill directory (durable parking). A later {"resume":true} request — to
// this process or a restarted one — picks the generation up from exactly
// this point. Failures are logged, never fail the request: parking is a
// best-effort bonus on top of a response already produced.
func (sch *scheduler) maybeSpill(s *Session) {
	if sch.cfg.SpillDir == "" || s.req.SessionID == "" {
		return
	}
	blob, err := s.kv.spill(&s.ftState)
	if err == nil {
		err = writeSpill(sch.cfg.SpillDir, s.req.SessionID, blob)
	}
	if err != nil {
		log.Printf("serve: session %q spill failed: %v", s.req.SessionID, err)
		return
	}
	sch.mx.sessSpilled.Add(1)
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
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), spillPath(dir, id))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// readSpill loads a parked session's blob; missing files surface as 404.
func readSpill(dir, id string) ([]byte, error) {
	blob, err := os.ReadFile(spillPath(dir, id))
	if os.IsNotExist(err) {
		return nil, &apiError{Status: 404, Msg: fmt.Sprintf("serve: no parked session %q", id)}
	}
	return blob, err
}
