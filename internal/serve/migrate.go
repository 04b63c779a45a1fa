package serve

import (
	"fmt"
	"hash/fnv"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/wire"
)

// This file is the scheduler's cluster surface: migration-checkpoint marks
// and their encoding for /v1/sessions/export, snapshot adoption for
// /v1/sessions/import and spill resume, and the durable-parking writer.
//
// A checkpoint is a mark until someone asks for it. At each export stride
// the owning worker records a mark — a model.View of the session's KV slabs
// plus its resume point and, when protected, its correction counters and
// read-only bounds — and encodes nothing. GET /v1/sessions/export encodes
// the latest mark on the handler's goroutine. A decode step only appends KV
// rows, so the rows a mark covers do not change while the session decodes
// on; the two things that do rewrite them — settle handing the state to the
// next session, and a chaos KV fault — first take the mark's pin
// exclusively (dropExport, rewriteRows).
//
// Capture ordering guarantee (what makes router-driven migration lossless):
// the worker goroutine that emitted token k records any due mark before the
// next decode step can emit k+1, so once a router has received token k+1
// over the stream, GET /v1/sessions/export returns a checkpoint covering
// ≥ k+1−ExportStride tokens. The router therefore never has to replay more
// than one stride plus the tokens it already relayed.

// exportSlot is one session's checkpoint export: its latest mark and, once a
// fetch encoded that mark, the blob. A session holds its id's slot from
// admission (claimExport) to settle (dropExport).
type exportSlot struct {
	protected bool // the session carries a fork state; fixed at admission

	// pin is held shared by an encoder while it reads the mark's KV rows,
	// and exclusively by the owning worker before those rows are rewritten.
	pin sync.RWMutex

	mu   sync.Mutex     // guards the fields below; never held while encoding
	mark model.Snapshot // View of the session's slabs at the mark; NextStep 0 = none
	fork core.ForkState // counters and bounds at the mark (protected only, no trail)
	seq  uint64         // marks recorded so far
	blob []byte         // the encoding of mark seq, nil until fetched
}

// encodeMark returns the blob of sl's latest mark and the tokens it covers
// (0 when there is no mark), encoding the mark on first use. The caller
// holds sl.pin, either way.
func (sch *scheduler) encodeMark(sl *exportSlot) ([]byte, int, error) {
	sl.mu.Lock()
	mark, fork, seq, blob := sl.mark, sl.fork, sl.seq, sl.blob
	sl.mu.Unlock()
	tokens := mark.NextStep()
	if tokens == 0 || blob != nil {
		return blob, tokens, nil
	}
	var fk *core.ForkState
	if sl.protected {
		fk = &fork
	}
	blob, err := wire.EncodeSession(&mark, fk)
	if err != nil {
		return nil, 0, err
	}
	sch.mx.ckptEncodes.Add(1)
	sl.mu.Lock()
	if sl.seq == seq {
		sl.blob = blob
	}
	sl.mu.Unlock()
	return blob, tokens, nil
}

// claimExport gives an exporting session — export on, a session id — its
// checkpoint slot at admission. Two sessions with one id would share one
// slot — the first to settle deleting the other's, a failover importing the
// other's state — so a second admitted or live session with the id is
// refused with 409.
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
	s.export = &exportSlot{protected: s.req.Protected}
	sch.exports[s.req.SessionID] = s.export
	return nil
}

// dropExport frees the session's id and its checkpoint. It waits out any
// encoder still reading the session's rows, so once it returns the state
// may be handed to another session.
func (sch *scheduler) dropExport(s *Session) {
	sl := s.export
	if sl == nil {
		return
	}
	sch.exportMu.Lock()
	delete(sch.exports, s.req.SessionID)
	sch.exportMu.Unlock()
	sl.pin.Lock()
	sl.mu.Lock()
	sl.mark, sl.fork, sl.blob = model.Snapshot{}, core.ForkState{}, nil
	sl.mu.Unlock()
	sl.pin.Unlock()
}

// exportFor returns the encoding of the latest mark of a live session id and
// how many tokens it covers: a 404 before the first mark and after settle, a
// 500 when the mark does not encode.
func (sch *scheduler) exportFor(id string) ([]byte, int, error) {
	sch.exportMu.Lock()
	sl := sch.exports[id]
	sch.exportMu.Unlock()
	if sl != nil {
		sl.pin.RLock()
		defer sl.pin.RUnlock()
		blob, tokens, err := sch.encodeMark(sl)
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

// captureExport records the session's current state (KV rows + resume
// point, plus the fork state for protected sessions) as its latest mark.
// Called by the owning worker between steps, mid-batch or right after the
// prefill completed; it allocates nothing once the session's first mark
// took its slab references.
func (sch *scheduler) captureExport(r *replica, s *Session) {
	sl := s.export
	sl.mu.Lock()
	r.m.View(s.state, &sl.mark)
	if sl.protected {
		sl.fork = s.ftState
		sl.fork.Trail = nil
	}
	sl.seq++
	sl.blob = nil
	sl.mu.Unlock()
	sch.mx.ckptExports.Add(1)
}

// rewriteRows runs rewrite — which may change KV rows s's latest mark
// covers — with the mark's pin held exclusively, after encoding the mark if
// no fetch has yet: the checkpoint a router fetches afterwards predates the
// rewrite.
func (sch *scheduler) rewriteRows(s *Session, rewrite func()) {
	sl := s.export
	if sl == nil {
		rewrite()
		return
	}
	sl.pin.Lock()
	defer sl.pin.Unlock()
	sch.encodeMark(sl) // fails only on a mark of no rows, which reads none
	rewrite()
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
	sch.holdState(r, s, s.adoptSnap.Rows()+s.req.MaxTokens)
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
