package serve

import (
	"context"
	"errors"
	"time"

	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/tokenizer"
)

// Session is one admitted generation request moving through the scheduler.
// A session owns its generation state (a model.DecodeState holding its KV
// slabs) plus its FT2 fork state, so it can advance on any replica — as an
// item of a model.ForwardBatch call, alone or alongside other sessions —
// with no snapshot copies and bit-identical results. Its phase is its
// state's: opened once startAt is set, decoding once kv.st.Started(), and
// the token it feeds next is kv.st.LastToken(). A session is driven by
// exactly one worker at a time; clients observe it through Tokens
// (streaming) and Wait.
type Session struct {
	req    Request
	prompt []int
	ctx    context.Context
	cancel context.CancelFunc

	out    []int
	tokens chan int // cap MaxTokens: scheduler sends never block
	done   chan struct{}
	err    error
	res    Result

	kv kvLease // owned generation state (KV slabs) and its checkpoint marks
	// ftState is the session's protection state, opened with its prefill
	// (core.OpenPrefill) when protected or recording its cache entry's trail:
	// each slice binds it to its slot's controller, to protect
	// (core.FT2.Bind) or to observe (core.FT2.Observe), and the hooks write
	// its bounds store and trail during prefill and, protected, its counters
	// at every step, in place. The prefill hands its trail back to the cache
	// (core.ForkState.Offer); an unprotected session holds none after that,
	// and so is hooked no more.
	ftState  core.ForkState
	admitted time.Time
	startAt  time.Time // the slice that opened it (queue latency endpoint); zero until then

	// Prefix-cache progress. hitRows is the cached-prefix depth the prefill
	// resumed from; insert marks that the completed prefill should be offered
	// back to the cache, with the bounds trail ftState carries.
	hitRows int
	insert  bool

	// Coalescing (scheduler.followOrLead): waited says the session has spent
	// its one wait behind an in-flight prefill of its prefix; followers are
	// the sessions parked behind this one (guarded by scheduler.leadMu).
	waited    bool
	followers []*Session

	// id identifies the session in the chaos journal; suspect marks that a
	// chaos fault targeted it (directly, or via weight corruption on its
	// group), so its output may silently diverge from the oracle.
	id      int64
	suspect bool

	// Adoption (migration import / spill resume): instead of prefilling a
	// prompt, the slice that opens the session restores adoptSnap into its
	// state and decodes from there; a protected one arrives with its fork
	// state in ftState, its counters cumulative across the session's whole
	// life, so the response matches the single-process oracle. corrBase is
	// that arriving state: server-level metrics accumulate only this
	// process's delta past its counters. lastExport is the token count of
	// the latest mark (0: none yet) and drives the checkpoint-export stride.
	adoptSnap  *model.Snapshot
	corrBase   core.ForkState
	lastExport int
}

// Tokens streams the generated token ids in order; the channel is closed
// when the session finishes (successfully or not).
func (s *Session) Tokens() <-chan int { return s.tokens }

// Done is closed when the session finished.
func (s *Session) Done() <-chan struct{} { return s.done }

// Wait blocks until the session finishes or ctx expires and returns the
// terminal result.
func (s *Session) Wait(ctx context.Context) (Result, error) {
	select {
	case <-s.done:
		return s.res, s.err
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// emit records one generated token and forwards it to the stream.
func (s *Session) emit(tok int) {
	s.out = append(s.out, tok)
	s.tokens <- tok // never blocks: cap == MaxTokens
}

// checkCtx maps a context failure to the client-visible error.
func (s *Session) checkCtx() error {
	switch err := s.ctx.Err(); {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadline
	default:
		return &apiError{Status: statusClientClosed, Msg: "serve: request canceled"}
	}
}

// statusClientClosed is the nginx-convention status for a client that went
// away before its response was ready.
const statusClientClosed = 499

// finishedAfter reports whether the generation is complete once tok has
// been emitted.
func (s *Session) finishedAfter(tok int) bool {
	return len(s.out) >= s.req.MaxTokens || (s.req.StopAtEOS && tok == tokenizer.EOS)
}

// finalize builds the terminal Result (called by the scheduler with the
// session off every replica).
func (s *Session) finalize(modelName string) {
	s.res = Result{
		Model:            modelName,
		Tokens:           s.out,
		Text:             data.Vocab().Decode(s.out),
		Protected:        s.req.Protected,
		QueueMS:          msSince(s.admitted, s.startAt),
		GenMS:            msSince(s.startAt, time.Now()),
		CachedPromptRows: s.hitRows,
	}
	if s.startAt.IsZero() {
		// Never opened (it settled in the queue, or parked behind a leader):
		// no generation window to report.
		s.res.QueueMS = msSince(s.admitted, time.Now())
		s.res.GenMS = 0
	}
	if s.req.Protected {
		s.res.Corrections = correctionsReport(s.ftState.Stats, s.ftState.FirstTokenNaN, s.ftState.ByKind)
	}
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }
