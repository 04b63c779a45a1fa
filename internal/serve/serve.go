// Package serve is the online protected-inference serving layer: an HTTP
// server that runs FT2-protected generation for concurrent clients with
// continuous batching.
//
// Architecture (DESIGN.md §10):
//
//   - A replica pool holds N independent model replicas of one zoo config
//     (weights rebuilt per replica from the same seed, so they are
//     bit-identical), each paired with a reusable FT2 controller.
//   - A continuous-batching scheduler admits requests through a bounded
//     queue and multiplexes up to MaxSessions active sessions over the
//     replicas: each worker gathers up to BatchMax ready sessions into a
//     group and advances the whole group one slice of SliceSteps steps
//     through mixed-phase model.ForwardBatch calls — a decoding session
//     contributes one row, a mid-prefill session a bounded prompt chunk,
//     and every weight matrix streams once per step for the whole group
//     instead of once per session — then puts the survivors back on the
//     ready ring. Each session owns its KV state (model.DecodeState) and
//     its FT2 fork state, so moving between replicas is a pointer swap and
//     a served generation is bit-identical to a standalone GenerateInto
//     run no matter how it was batched, chunked, or preempted. A group of
//     one is a one-item ForwardBatch call; a decode-only step below the
//     kernel cost model's measured fusion crossover runs as one-row calls
//     instead of one m-row call — same code, same bits.
//   - Robustness: per-request deadlines via context, 429 backpressure when
//     the admission queue is full, 503 while draining, and a per-slice
//     recover boundary so a request that trips an engine panic is answered
//     with an error (and its replica rebuilt) instead of killing the
//     server.
//   - Observability: /healthz, /metrics (text format), and per-request
//     correction counts — total and per layer kind — in every response.
package serve

import (
	"fmt"
	"runtime"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
)

// Config assembles a Server. The zero value is not usable: Model (or
// ModelCfg) is required; every other field has a sensible default.
type Config struct {
	// Model names the zoo config to serve; ModelCfg overrides it when
	// non-zero (Name set).
	Model    string
	ModelCfg model.Config
	// Seed is the deterministic weight seed shared by every replica.
	Seed int64
	// DType is the activation precision (default FP16).
	DType numerics.DType
	// Replicas is the model-replica count (default: GOMAXPROCS capped at
	// NumCPU — more workers than cores only time-slice each other through
	// the OS scheduler and shrink the fused groups each worker can gather).
	Replicas int
	// MaxSessions caps the sessions decoded concurrently; beyond Replicas
	// they time-slice (default 4×Replicas, min 16).
	MaxSessions int
	// QueueDepth bounds the admission queue; a full queue answers 429
	// (default 64).
	QueueDepth int
	// SliceSteps is the decode steps a session runs per scheduling slice
	// before yielding its replica (default 8). Smaller slices interleave
	// finer at a higher scheduling cost.
	SliceSteps int
	// BatchMax caps how many ready sessions a worker fuses into one
	// mixed-phase ForwardBatch group (default MaxSessions — every weight
	// matrix streamed per step amortizes over the widest group available).
	// It is only a capacity cap: 1 means groups of one, through the same
	// code.
	BatchMax int
	// DefaultDeadline bounds a request that carries no deadline of its own
	// (default 30s; ≤0 keeps the default — a server must never hold a slot
	// forever).
	DefaultDeadline time.Duration
	// FT2Opts tunes the protection applied when a request asks for it
	// (zero value: core.Defaults()).
	FT2Opts core.Options
	// ProtectPolicy, when set, replaces the architectural FT2 coverage with
	// an adaptive per-layer-kind tier policy: the protection controller runs
	// each layer kind through the tier the policy assigns (none / ft2 / abft
	// / dmr / abft+ft2). Nil keeps plain FT2. A policy naming a layer kind
	// the model's family lacks is a configuration error.
	ProtectPolicy *protect.Policy
	// Chaos enables online chaos engineering: a seeded deterministic fault
	// stream injected into live sessions that opted in (Request.Chaos) at
	// scheduler slice boundaries, with detection, scrubbing, and replica
	// rebuild wired into the slice loop. Nil disables chaos entirely.
	Chaos *chaos.Config
	// WeightsF16 stores every replica's weight matrices as packed binary16
	// (model.EnableF16Weights): half the streamed bytes per decode step on
	// F16C hosts, bit-identical outputs (TestServedMatchesOracleWithF16Weights). All
	// replicas and the Oracle share the storage mode, so served tokens are
	// comparable either way.
	WeightsF16 bool
	// StepDelay inserts an artificial pause before every decode step — a
	// throttle for demos and smoke tests that need generations slow enough
	// to observe scheduling, draining, and preemption. Production: 0.
	StepDelay time.Duration
	// PrefixCacheMB enables the shared-prompt radix prefix cache with the
	// given KV byte budget in MiB (0 disables it). Admitted sessions fork
	// their KV from the longest cached token prefix and prefill only the
	// unique suffix; completed prefills are inserted back. Bit-identity with
	// cold sessions is preserved (DESIGN.md §14).
	PrefixCacheMB int
	// PrefillChunk bounds how many prompt rows one scheduling slice may
	// prefill before the session yields its replica, so long-prompt
	// admission cannot stall a decode batch for the whole prompt. 0 keeps
	// single-pass prefills — unless the prefix cache is on, which defaults
	// the grain to 64: cache traffic means long shared prompts arriving
	// beside decoding sessions, and the grain bounds how long one of them
	// can stall a decode step. It has no bearing on cache hit depth — FT2
	// bounds resume at any row (DESIGN.md §14).
	PrefillChunk int
	// ExportStride enables live-migration checkpoints for sessions that
	// carry a session_id: every ExportStride emitted tokens (plus once right
	// after the first token) the scheduler captures the session's state into
	// a wire-format blob served by GET /v1/sessions/export, so a router can
	// restore the session elsewhere if this worker dies. 0 disables export.
	ExportStride int
	// SpillDir enables durable session parking: a successfully finished
	// session that carried a session_id has its final state written to
	// <SpillDir>/<hash>.ft2s in the wire format, and a later request with
	// {"resume":true,"session_id":...} — to this process or a restarted one
	// — restores it and generates MaxTokens further tokens. "" disables.
	SpillDir string
}

// WithDefaults resolves the configuration exactly as New does — the
// harnesses that drive Oracle against a config without building a Server
// (the router tests, the cluster bench) use it to get the effective
// FT2Opts and model config.
func (c Config) WithDefaults() (Config, error) { return c.withDefaults() }

// withDefaults resolves the config, returning the effective values.
func (c Config) withDefaults() (Config, error) {
	if c.ModelCfg.Name == "" {
		if c.Model == "" {
			return c, fmt.Errorf("serve: no model configured")
		}
		cfg, err := model.ConfigByName(c.Model)
		if err != nil {
			return c, err
		}
		c.ModelCfg = cfg
	}
	c.Model = c.ModelCfg.Name
	if err := c.ModelCfg.Validate(); err != nil {
		return c, err
	}
	if c.Replicas <= 0 {
		c.Replicas = runtime.GOMAXPROCS(0)
		if n := runtime.NumCPU(); c.Replicas > n {
			c.Replicas = n
		}
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4 * c.Replicas
		if c.MaxSessions < 16 {
			c.MaxSessions = 16
		}
	}
	if c.MaxSessions < c.Replicas {
		c.MaxSessions = c.Replicas
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SliceSteps <= 0 {
		c.SliceSteps = 8
	}
	if c.BatchMax <= 0 {
		c.BatchMax = c.MaxSessions
	}
	if c.BatchMax > c.MaxSessions {
		c.BatchMax = c.MaxSessions
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if (c.FT2Opts == core.Options{}) {
		c.FT2Opts = core.Defaults()
	}
	if _, err := c.ProtectPolicy.Compile(c.ModelCfg.Family); err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	if c.PrefixCacheMB < 0 {
		c.PrefixCacheMB = 0
	}
	if c.PrefillChunk < 0 {
		c.PrefillChunk = 0
	}
	if c.PrefixCacheMB > 0 && c.PrefillChunk <= 0 {
		c.PrefillChunk = 64
	}
	if c.ExportStride < 0 {
		c.ExportStride = 0
	}
	return c, nil
}
