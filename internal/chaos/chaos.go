// Package chaos is the online chaos-engineering engine for the serving
// layer: a seeded, deterministic fault planner that injects transient
// activation flips, persistent weight corruption, and KV-cache bit flips
// into live batched sessions.
//
// The engine only *plans* and *journals*. It keeps what is specific to
// chaos — the arrival rate, bursts, the victim draw and weight demotion —
// and draws every fault site through fault.Space, routed by
// fault.TargetMix.Route, the same sampler the offline campaigns use. The
// scheduler applies the planned list at a slice boundary — the moment the
// replica-owning worker holds the model and no kernel is running — so chaos
// never races decode. Two invariants keep the blast radius honest:
//
//   - Session-scoped faults (activation, KV) land only on sessions that
//     opted in (Request.Chaos); control sessions sharing the same batch
//     stay bit-identical to the oracle.
//   - Weight faults corrupt replica-global state, so the planner emits them
//     only when the caller reports that every session in the slice group is
//     a chaos victim, and the scheduler scrubs the replica before it can
//     serve anyone else.
//
// Every injection and every recovery action is journaled (bounded
// in-memory ring plus optional JSONL file), so a chaos run is replayable
// evidence, not noise.
package chaos

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"

	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
)

// Config tunes the engine. The zero value is not usable: Rate must be
// positive and finite, and Mix a valid split (fault.TargetMix.Validate);
// everything else has a default.
type Config struct {
	// Seed drives the deterministic fault stream.
	Seed int64
	// Rate is the expected fault arrivals per scheduling slice (Poisson-ish:
	// ⌊Rate⌋ guaranteed arrivals plus one more with the fractional
	// probability). 0.25 means roughly one arrival every four slices.
	Rate float64
	// Burst widens each arrival into 1+rand(Burst) simultaneous faults — the
	// multi-fault burst regime. 0 or 1 keeps single-fault arrivals.
	Burst int
	// Mix routes arrivals to weight / KV-cache targets; the remainder are
	// transient activation flips. Weight arrivals planned for a slice whose
	// group is not fully chaos-eligible are demoted to activation faults so
	// the blast-radius invariant holds without skewing the arrival rate.
	Mix fault.TargetMix
	// Fault picks the flipped bit positions (default numerics.SingleBit).
	Fault numerics.FaultModel
	// DType is the corrupted storage format (default FP16).
	DType numerics.DType
	// Journal, when non-empty, appends every event as one JSON line to this
	// path.
	Journal string
	// MaxEvents bounds the in-memory event ring (default 256).
	MaxEvents int
}

func (c Config) withDefaults() Config {
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 256
	}
	return c
}

// Event kinds journaled by the engine. Injections come from the planner;
// the recovery kinds are recorded by the serving layer when detection and
// repair actions fire.
const (
	EvInject      = "inject"       // a fault was applied
	EvScrubDetect = "scrub-detect" // a weight scrub found checksum corruption
	EvRebuild     = "rebuild"      // a replica was replaced by a fresh one over the pristine weights
)

// Event is one journaled chaos action.
type Event struct {
	Seq     int64  `json:"seq"`
	Kind    string `json:"kind"`
	Target  string `json:"target,omitempty"` // activation | weight | kv
	Site    string `json:"site,omitempty"`
	Session int64  `json:"session,omitempty"`
	Replica int    `json:"replica,omitempty"`
	Step    int    `json:"step,omitempty"`
}

// Counters aggregates journaled events for /metrics.
type Counters struct {
	InjectedActivation int64
	InjectedWeight     int64
	InjectedKV         int64
	ScrubDetected      int64
	Rebuilds           int64
}

// Injected returns the total applied injections across targets.
func (c Counters) Injected() int64 {
	return c.InjectedActivation + c.InjectedWeight + c.InjectedKV
}

// SessionView is the planner's picture of one chaos-eligible session in the
// slice group about to run.
type SessionView struct {
	// ID identifies the session in the journal.
	ID int64
	// Step is the decode steps the session has completed so far.
	Step int
	// Budget is how many steps this slice will run (≥ 1).
	Budget int
	// Rows is the session's resident KV rows (prompt + generated so far).
	Rows int
}

// SessionFault is a planned fault aimed at one session of the group.
type SessionFault struct {
	// Session indexes the views passed to PlanSlice: the drawn victim. A
	// weight fault lands on the replica every session of the group shares.
	Session int
	Site    fault.Site
}

// Engine plans faults and journals chaos events. Safe for concurrent use by
// the scheduler's workers; the single seeded RNG behind the mutex keeps the
// global fault stream deterministic for a given arrival order.
type Engine struct {
	mu       sync.Mutex
	cfg      Config
	space    fault.Space
	rng      *rand.Rand
	seq      int64
	events   []Event
	journal  *os.File
	enc      *json.Encoder
	counters Counters
}

// NewEngine builds an engine for one model configuration, opening the JSONL
// journal when configured.
func NewEngine(cfg Config, mcfg model.Config) (*Engine, error) {
	if !(cfg.Rate > 0) || math.IsInf(cfg.Rate, 1) {
		return nil, fmt.Errorf("chaos: rate must be positive and finite, got %g", cfg.Rate)
	}
	if err := cfg.Mix.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		space: fault.NewSpace(mcfg, cfg.DType, cfg.Fault),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.Journal != "" {
		f, err := os.OpenFile(cfg.Journal, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("chaos: opening journal: %w", err)
		}
		e.journal = f
		e.enc = json.NewEncoder(f)
	}
	return e, nil
}

// Config returns the effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Close flushes and closes the journal file, if any.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.journal == nil {
		return nil
	}
	err := e.journal.Close()
	e.journal = nil
	e.enc = nil
	return err
}

// PlanSlice draws this slice's faults over the chaos-eligible sessions in
// views, in arrival order. weightOK reports that *every* session in the
// slice group (eligible or not) is a chaos victim — the precondition for
// replica-global weight corruption. An empty views yields no faults: with
// nobody opted in there is nothing to corrupt.
func (e *Engine) PlanSlice(views []SessionView, weightOK bool) []SessionFault {
	if len(views) == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	arrivals := int(e.cfg.Rate)
	if e.rng.Float64() < e.cfg.Rate-float64(arrivals) {
		arrivals++
	}
	var faults []SessionFault
	for a := 0; a < arrivals; a++ {
		n := 1
		if e.cfg.Burst > 1 {
			n += e.rng.Intn(e.cfg.Burst)
		}
		for i := 0; i < n; i++ {
			faults = append(faults, e.planOne(views, weightOK))
		}
	}
	return faults
}

// planOne routes one fault per Mix and draws its victim and site: a flip at
// a uniform step of the victim's slice, in its resident KV rows, or in the
// weights at its next step. A weight arrival on a group that is not all
// victims demotes to an activation flip, preserving the arrival rate.
func (e *Engine) planOne(views []SessionView, weightOK bool) SessionFault {
	target := e.cfg.Mix.Route(e.rng.Float64())
	v := e.rng.Intn(len(views))
	view := views[v]
	switch {
	case target == fault.TargetWeight && weightOK:
		return SessionFault{v, e.space.Weight(e.rng, view.Step+1)}
	case target == fault.TargetKVCache:
		return SessionFault{v, e.space.KV(e.rng, view.Step, view.Rows)}
	}
	return SessionFault{v, e.space.Activation(e.rng, view.Step+1+e.rng.Intn(view.Budget))}
}

// Record journals one event, stamping its sequence number and bumping the
// matching counter. The serving layer calls it when a planned fault is
// actually applied and when detection/recovery actions fire.
func (e *Engine) Record(ev Event) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq++
	ev.Seq = e.seq
	if len(e.events) >= e.cfg.MaxEvents {
		copy(e.events, e.events[1:])
		e.events = e.events[:len(e.events)-1]
	}
	e.events = append(e.events, ev)
	if e.enc != nil {
		_ = e.enc.Encode(ev) // journal loss must not stall serving
	}
	switch ev.Kind {
	case EvInject:
		switch ev.Target {
		case fault.TargetWeight.String():
			e.counters.InjectedWeight++
		case fault.TargetKVCache.String():
			e.counters.InjectedKV++
		default:
			e.counters.InjectedActivation++
		}
	case EvScrubDetect:
		e.counters.ScrubDetected++
	case EvRebuild:
		e.counters.Rebuilds++
	}
}

// Counters snapshots the aggregate event counts.
func (e *Engine) Counters() Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.counters
}

// Events returns a copy of the in-memory event ring (most recent MaxEvents,
// oldest first).
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}
