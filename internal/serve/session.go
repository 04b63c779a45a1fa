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
// with no snapshot copies and bit-identical results. A session is driven
// by exactly one worker at a time; clients observe it through Tokens
// (streaming) and Wait.
type Session struct {
	req    Request
	prompt []int
	ctx    context.Context
	cancel context.CancelFunc

	out     []int
	tokens  chan int // cap MaxTokens: scheduler sends never block
	done    chan struct{}
	err     error
	res     Result
	lastTok int

	started  bool
	state    *model.DecodeState // owned generation state (KV slabs)
	ftState  core.ForkState
	admitted time.Time
	startAt  time.Time // first slice began (queue latency endpoint)

	// Chunked-prefill / prefix-cache progress. prefillStarted flips on the
	// session's first prefill slice (cache lookup + BeginPrefill); hitRows is
	// the cached-prefix depth it resumed from; insert marks that the
	// completed prefill should be offered back to the cache (a protected
	// session's ftState carries the bounds trail the entry needs).
	prefillStarted bool
	hitRows        int
	insert         bool

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
	// prompt, the session's first slice restores adoptSnap (and, when
	// protected, adoptFT) into its state and decodes from there. corrBase
	// holds the correction counters the state arrived with, so server-level
	// metrics only accumulate this process's delta while the response stays
	// cumulative. lastExport and exportSnap drive the checkpoint-export
	// stride; exportSnap is reused across captures.
	adoptSnap  *model.Snapshot
	adoptFT    *core.ForkState
	adoptKind  adoptKind
	corrBase   core.ForkState
	lastExport int
	exportSnap *model.Snapshot
}

// adoptKind distinguishes how an adopted session's state arrived, for the
// restored/imported metrics split.
type adoptKind int

const (
	adoptNone   adoptKind = iota
	adoptImport           // POST /v1/sessions/import (live migration)
	adoptSpill            // Resume from the spill directory (durable parking)
)

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

// syncFT2 captures the controller's correction counters into the session's
// fork state so they survive the slice (the bounds pointer is already ours).
func (s *Session) syncFT2(f *core.FT2) {
	if !s.req.Protected || !s.started {
		return
	}
	s.ftState.Stats = f.Stats()
	s.ftState.ByKind = f.StatsByKind()
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
	if !s.started {
		// Never scheduled (deadline expired in the queue): no generation
		// window to report.
		s.res.QueueMS = msSince(s.admitted, time.Now())
		s.res.GenMS = 0
	}
	if s.req.Protected {
		s.res.Corrections = correctionsReport(s.ftState.Stats, s.ftState.FirstTokenNaN, s.ftState.ByKind)
	}
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / float64(time.Millisecond) }
