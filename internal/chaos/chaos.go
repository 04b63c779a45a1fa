// Package chaos is the online chaos-engineering engine for the serving
// layer: a seeded, deterministic fault planner that injects transient
// activation flips, persistent weight corruption, and KV-cache bit flips
// into live batched sessions.
//
// The engine only *plans* and *journals*; the scheduler applies every
// mutation at a slice boundary — the moment the replica-owning worker holds
// the model and no kernel is running — so chaos never races decode. Two
// invariants keep the blast radius honest:
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
	"math/rand"
	"os"
	"sync"

	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
)

// Config tunes the engine. The zero value is not usable: Rate must be
// positive; everything else has a default.
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
	// Session indexes the views passed to PlanSlice.
	Session int
	Site    fault.Site
}

// Plan is the faults to apply around one scheduling slice: KV and weight
// mutations land at the boundary before the slice runs; activation faults
// install as per-victim hooks that fire at their planned step inside it.
type Plan struct {
	Activation []SessionFault
	KV         []SessionFault
	Weight     []fault.Site
}

// Empty reports whether the plan carries no faults.
func (p Plan) Empty() bool {
	return len(p.Activation) == 0 && len(p.KV) == 0 && len(p.Weight) == 0
}

// Engine plans faults and journals chaos events. Safe for concurrent use by
// the scheduler's workers; the single seeded RNG behind the mutex keeps the
// global fault stream deterministic for a given arrival order.
type Engine struct {
	mu       sync.Mutex
	cfg      Config
	mcfg     model.Config
	rng      *rand.Rand
	seq      int64
	events   []Event
	journal  *os.File
	enc      *json.Encoder
	counters Counters

	layers      []model.LayerRef
	layerElems  []int
	perTokenSum int
	weightElems []int
	weightSum   int64
}

// NewEngine builds an engine for one model configuration, opening the JSONL
// journal when configured.
func NewEngine(cfg Config, mcfg model.Config) (*Engine, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("chaos: rate must be positive, got %g", cfg.Rate)
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:  cfg,
		mcfg: mcfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
	}
	for _, ref := range mcfg.LinearLayers() {
		w := mcfg.OutDim(ref.Kind)
		e.layers = append(e.layers, ref)
		e.layerElems = append(e.layerElems, w)
		e.perTokenSum += w
		we := w * mcfg.InDim(ref.Kind)
		e.weightElems = append(e.weightElems, we)
		e.weightSum += int64(we)
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
// views. weightOK reports that *every* session in the slice group (eligible
// or not) is a chaos victim — the precondition for replica-global weight
// corruption; when false, weight arrivals demote to activation flips. An
// empty views yields an empty plan: with nobody opted in there is nothing
// to corrupt.
func (e *Engine) PlanSlice(views []SessionView, weightOK bool) Plan {
	var plan Plan
	if len(views) == 0 {
		return plan
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	arrivals := int(e.cfg.Rate)
	if e.rng.Float64() < e.cfg.Rate-float64(arrivals) {
		arrivals++
	}
	for a := 0; a < arrivals; a++ {
		n := 1
		if e.cfg.Burst > 1 {
			n += e.rng.Intn(e.cfg.Burst)
		}
		for i := 0; i < n; i++ {
			e.planOne(&plan, views, weightOK)
		}
	}
	return plan
}

func (e *Engine) planOne(plan *Plan, views []SessionView, weightOK bool) {
	u := e.rng.Float64()
	v := e.rng.Intn(len(views))
	switch {
	case u < e.cfg.Mix.Weight:
		if weightOK {
			plan.Weight = append(plan.Weight, e.weightSite(views[v].Step+1))
			return
		}
		// Demoted: a weight arrival on a mixed group becomes an activation
		// flip on the drawn victim, preserving the arrival rate.
		plan.Activation = append(plan.Activation, SessionFault{v, e.activationSite(views[v])})
	case u < e.cfg.Mix.Weight+e.cfg.Mix.KV:
		plan.KV = append(plan.KV, SessionFault{v, e.kvSite(views[v])})
	default:
		plan.Activation = append(plan.Activation, SessionFault{v, e.activationSite(views[v])})
	}
}

// activationSite plans a transient flip at a uniform step of the victim's
// slice and a width-uniform neuron.
func (e *Engine) activationSite(v SessionView) fault.Site {
	site := fault.Site{
		Target: fault.TargetActivation,
		Step:   v.Step + 1 + e.rng.Intn(v.Budget),
	}
	off := e.rng.Intn(e.perTokenSum)
	for i, w := range e.layerElems {
		if off < w {
			site.Layer = e.layers[i]
			site.Elem = off
			break
		}
		off -= w
	}
	site.Bits = e.cfg.Fault.PickBits(e.cfg.DType, e.rng)
	return site
}

// kvSite plans a flip of one resident KV element of the victim.
func (e *Engine) kvSite(v SessionView) fault.Site {
	kind := model.KProj
	if e.rng.Intn(2) == 1 {
		kind = model.VProj
	}
	pos := e.rng.Intn(v.Rows)
	col := e.rng.Intn(e.mcfg.Hidden)
	return fault.Site{
		Target: fault.TargetKVCache,
		Step:   v.Step,
		Layer:  model.LayerRef{Block: e.rng.Intn(e.mcfg.Blocks), Kind: kind},
		Elem:   pos*e.mcfg.Hidden + col,
		Bits:   e.cfg.Fault.PickBits(e.cfg.DType, e.rng),
	}
}

// weightSite plans a persistent flip of one size-uniform weight element;
// step records when the corruption lands, for the journal.
func (e *Engine) weightSite(step int) fault.Site {
	site := fault.Site{Target: fault.TargetWeight, Step: step}
	w := e.rng.Int63n(e.weightSum)
	for i, we := range e.weightElems {
		if w < int64(we) {
			site.Layer = e.layers[i]
			site.Elem = int(w)
			break
		}
		w -= int64(we)
	}
	site.Bits = e.cfg.Fault.PickBits(e.cfg.DType, e.rng)
	return site
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
