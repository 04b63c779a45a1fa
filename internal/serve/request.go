package serve

import (
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/protect"
	"ft2/internal/tokenizer"
)

// Request is one generation request. Exactly one prompt source must be set:
// explicit token ids, raw text (tokenized with the shared vocabulary), or a
// (dataset, input-index) pair sampling a synthetic corpus prompt.
type Request struct {
	// PromptTokens is the prompt as token ids.
	PromptTokens []int `json:"prompt_tokens,omitempty"`
	// Text is a whitespace-tokenized prompt; unknown words map to <unk>.
	Text string `json:"text,omitempty"`
	// Dataset + Input sample a prompt from a synthetic corpus by name and
	// input index (e.g. {"dataset":"squad-sim","input":3}).
	Dataset string `json:"dataset,omitempty"`
	Input   int    `json:"input,omitempty"`

	// MaxTokens is the number of tokens to generate (required, ≥1).
	MaxTokens int `json:"max_tokens"`
	// Protected runs the generation under FT2 (default false: bare model).
	Protected bool `json:"protected"`
	// Chaos opts the request in as a chaos-engineering victim: when the
	// server runs a chaos engine, this session's activations and KV cache
	// may be corrupted, and it may share a batch with persistent weight
	// corruption. Requests that do not opt in are never targeted and stay
	// bit-identical to the oracle. A no-op when the server runs no chaos.
	Chaos bool `json:"chaos,omitempty"`
	// Stream answers with one NDJSON line per token instead of a single
	// JSON document.
	Stream bool `json:"stream,omitempty"`
	// StopAtEOS ends the generation early when the model emits <eos>. Off
	// by default so responses stay bit-comparable to fixed-length
	// GenerateInto oracle runs.
	StopAtEOS bool `json:"stop_at_eos,omitempty"`
	// DeadlineMS overrides the server's default per-request deadline,
	// measured from admission (0 = server default).
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// SessionID names the session for the cluster features: with the server's
	// ExportStride set it keys the migration checkpoints served by
	// /v1/sessions/export, and with SpillDir set the finished session is
	// parked to disk under this id for a later Resume. Empty opts out of both.
	SessionID string `json:"session_id,omitempty"`
	// Resume restores the parked session SessionID from the server's spill
	// directory (400/404 errors when parking is off or the id is unknown) and
	// generates MaxTokens further tokens from exactly where it stopped. A
	// resume request carries no prompt — the parked state is the prompt.
	Resume bool `json:"resume,omitempty"`
}

// KindCorrections reports the corrections FT2 applied on one layer kind.
type KindCorrections struct {
	OutOfBound int `json:"out_of_bound"`
	NaN        int `json:"nan"`
}

// Corrections is the per-request protection telemetry: how often FT2 acted
// while generating this response.
type Corrections struct {
	OutOfBound    int `json:"out_of_bound"`
	NaN           int `json:"nan"`
	FirstTokenNaN int `json:"first_token_nan"`
	// ByKind lists only the layer kinds that saw corrections.
	ByKind map[string]KindCorrections `json:"by_kind,omitempty"`
}

// correctionsReport renders FT2 counters into the response shape.
func correctionsReport(stats protect.CorrectionStats, firstTokenNaN int,
	byKind [model.NumLayerKinds]protect.CorrectionStats) Corrections {
	c := Corrections{
		OutOfBound:    stats.OutOfBound,
		NaN:           stats.NaN,
		FirstTokenNaN: firstTokenNaN,
	}
	for k, st := range byKind {
		if st.OutOfBound == 0 && st.NaN == 0 {
			continue
		}
		if c.ByKind == nil {
			c.ByKind = make(map[string]KindCorrections)
		}
		c.ByKind[model.LayerKind(k).String()] = KindCorrections{OutOfBound: st.OutOfBound, NaN: st.NaN}
	}
	return c
}

// Result is the terminal state of a finished session.
type Result struct {
	Model       string      `json:"model"`
	Tokens      []int       `json:"tokens"`
	Text        string      `json:"text"`
	Protected   bool        `json:"protected"`
	Corrections Corrections `json:"corrections"`
	// QueueMS is the time spent between admission and the first slice —
	// including time parked behind an in-flight prefill of the same prefix;
	// GenMS covers prefill + decode (including time parked between slices).
	QueueMS float64 `json:"queue_ms"`
	GenMS   float64 `json:"gen_ms"`
	// CachedPromptRows is how many prompt rows the session forked from the
	// prefix cache instead of computing (0: cold, or the cache is off).
	CachedPromptRows int `json:"cached_prompt_rows"`
}

// apiError is a client-visible failure with an HTTP status. The serve
// boundary converts engine misuse — which panics inside internal packages,
// by contract a programmer error there — into these returned errors, so no
// request payload can take the server down.
type apiError struct {
	Status int
	Msg    string
}

func (e *apiError) Error() string { return e.Msg }

func badRequest(format string, args ...interface{}) *apiError {
	return &apiError{Status: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// Sentinel scheduler errors, each mapped to its HTTP status by errStatus.
var (
	// ErrQueueFull is returned (429) when the admission queue is at
	// capacity — the client should back off and retry.
	ErrQueueFull = &apiError{Status: http.StatusTooManyRequests, Msg: "serve: admission queue full"}
	// ErrDraining is returned (503) once the server stopped admitting.
	ErrDraining = &apiError{Status: http.StatusServiceUnavailable, Msg: "serve: server is draining"}
	// ErrDeadline is returned (504) when a request's deadline expired
	// before its generation finished.
	ErrDeadline = &apiError{Status: http.StatusGatewayTimeout, Msg: "serve: request deadline exceeded"}
)

// errStatus maps any error to the HTTP status to answer with.
func errStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return http.StatusInternalServerError
}

// recoverAs500 is the engine's panic boundary, deferred by both scheduler
// entries into it (open, fusedSlice): a panic out of the engine or a hook is
// logged with its stack and becomes a 500 for the sessions involved instead
// of crashing the server.
func recoverAs500(err *error, where string) {
	if p := recover(); p != nil {
		log.Printf("serve: panic %s: %v\n%s", where, p, debug.Stack())
		*err = &apiError{Status: 500, Msg: fmt.Sprintf("serve: internal error: %v", p)}
	}
}

// maxDeadlineMS is the largest deadline_ms a time.Duration can hold.
const maxDeadlineMS = math.MaxInt64 / int64(time.Millisecond)

// deadline returns the request's own deadline, or def when it sets none
// (DeadlineMS ≤ 0). A deadline_ms past maxDeadlineMS is a 400: converted to
// nanoseconds it would wrap to an arbitrary, often zero or negative,
// duration.
func (r *Request) deadline(def time.Duration) (time.Duration, error) {
	if r.DeadlineMS <= 0 {
		return def, nil
	}
	if int64(r.DeadlineMS) > maxDeadlineMS {
		return 0, badRequest("deadline_ms %d exceeds %d", r.DeadlineMS, maxDeadlineMS)
	}
	return time.Duration(r.DeadlineMS) * time.Millisecond, nil
}

// maxDatasetInput caps a dataset request's input index at the paper's own
// evaluation scale, so the corpora a server holds stay small.
const maxDatasetInput = 50

// corpora holds each named synthetic corpus a dataset request asked for,
// built once, at maxDatasetInput inputs, by the first request that names it.
// Its prompts are shared by every request and only read.
var corpora struct {
	sync.Mutex
	byName map[string]*data.Dataset
}

// corpus returns the named corpus, building it on first use; an unknown
// name is an error and builds nothing.
func corpus(name string) (*data.Dataset, error) {
	corpora.Lock()
	defer corpora.Unlock()
	if ds := corpora.byName[name]; ds != nil {
		return ds, nil
	}
	ds, err := data.ByName(name, maxDatasetInput)
	if err != nil {
		return nil, err
	}
	if corpora.byName == nil {
		corpora.byName = make(map[string]*data.Dataset)
	}
	corpora.byName[name] = ds
	return ds, nil
}

// resolvePrompt validates the request against the served model and returns
// the prompt token ids. Every condition that would panic inside the engine
// (empty prompt, out-of-vocab token, MaxSeq overflow) is rejected here with
// a 400-class error instead.
func (r *Request) resolvePrompt(cfg model.Config) ([]int, error) {
	sources := 0
	if len(r.PromptTokens) > 0 {
		sources++
	}
	if r.Text != "" {
		sources++
	}
	if r.Dataset != "" {
		sources++
	}
	if sources != 1 {
		return nil, badRequest("exactly one of prompt_tokens, text, dataset must be set")
	}

	var prompt []int
	switch {
	case len(r.PromptTokens) > 0:
		prompt = r.PromptTokens
	case r.Text != "":
		// Count the words first: a text no prompt can hold is refused
		// without tokenizing it.
		if n := tokenizer.CountFields(r.Text, cfg.MaxSeq); n >= cfg.MaxSeq {
			return nil, badRequest("text of %d or more words exceeds the model's max sequence %d", n, cfg.MaxSeq)
		}
		prompt = append([]int{tokenizer.BOS}, data.Vocab().Encode(r.Text)...)
	default:
		if r.Input < 0 || r.Input >= maxDatasetInput {
			return nil, badRequest("dataset input %d out of range [0,%d)", r.Input, maxDatasetInput)
		}
		ds, err := corpus(r.Dataset)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		prompt = ds.Inputs[r.Input].Prompt
	}

	for i, tok := range prompt {
		if tok < 0 || tok >= cfg.Vocab {
			return nil, badRequest("prompt token %d at position %d outside vocabulary [0,%d)", tok, i, cfg.Vocab)
		}
	}
	if r.MaxTokens < 1 {
		return nil, badRequest("max_tokens must be ≥ 1, got %d", r.MaxTokens)
	}
	// Subtraction form: len(prompt)+MaxTokens could wrap negative for a
	// MaxTokens near MaxInt and sneak past an addition-form check into the
	// engine's panic paths (and a huge make() in submit).
	if r.MaxTokens > cfg.MaxSeq || len(prompt) > cfg.MaxSeq-r.MaxTokens {
		return nil, badRequest("prompt (%d) + max_tokens (%d) exceeds the model's max sequence %d",
			len(prompt), r.MaxTokens, cfg.MaxSeq)
	}
	return prompt, nil
}
