// Package campaign orchestrates statistical fault-injection campaigns: it
// fans trials out over a worker pool (one model replica per worker),
// injects exactly one fault per inference at a uniformly sampled site,
// applies the configured protection, classifies each outcome as Masked or
// SDC with the paper's containment rule, and aggregates binomial SDC-rate
// estimates with 95% confidence intervals.
//
// The execution core treats the harness itself as a fault domain: every
// trial runs under a recover() boundary that converts panics into a typed
// TrialError, transient failures are retried with a bounded budget, a dead
// worker replaces its model replica instead of sinking the pool, campaigns
// honor context cancellation and per-trial watchdog timeouts, and an
// append-only JSONL journal checkpoints classified outcomes so interrupted
// campaigns resume without re-running completed trials.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"ft2/internal/arch"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/perfmodel"
	"ft2/internal/protect"
	"ft2/internal/stats"
	"ft2/internal/tensor"
)

// Window restricts where in the inference faults are injected.
type Window int

const (
	// WindowAll samples sites uniformly over the whole inference.
	WindowAll Window = iota
	// WindowFirstToken restricts injection to the prefill pass (Fig. 11).
	WindowFirstToken
	// WindowFollowing restricts injection to the decode steps.
	WindowFollowing
)

// String implements fmt.Stringer.
func (w Window) String() string {
	switch w {
	case WindowFirstToken:
		return "first-token"
	case WindowFollowing:
		return "following"
	default:
		return "all"
	}
}

// Spec configures one campaign cell (model × dataset × fault model ×
// protection method).
type Spec struct {
	ModelCfg  model.Config
	ModelSeed int64
	DType     numerics.DType
	Fault     numerics.FaultModel
	Method    arch.Method
	// FT2Opts configures the online FT2 when Method is MethodFT2.
	FT2Opts core.Options
	// OfflineBounds supplies profiled bounds for the baseline methods and
	// MethodFT2Offline. Required for every method except None and FT2.
	OfflineBounds *protect.Store
	// CustomCoverage, when non-nil, overrides the method's coverage with an
	// explicit site set protected via offline bounds + clip-to-bound + NaN
	// correction — the leave-one-out configuration of Figure 6.
	CustomCoverage map[arch.CoveragePoint]bool
	// UseDMR replaces the method's protection with duplication in place
	// over every linear layer (the high-overhead 0%-SDC alternative of the
	// paper's limitations section; see protect.DMR).
	UseDMR bool
	// Policy, when non-nil, replaces the method's protection with the
	// adaptive per-layer-kind policy the serving layer runs: FT2 range
	// restriction, ABFT checksum repair, DMR, or a stacked abft+ft2 per
	// layer kind, with FT2Opts configuring the FT2 tier. Method, UseDMR and
	// CustomCoverage are ignored when set.
	Policy *protect.Policy
	// Targets routes a fraction of sampled faults to persistent weight
	// corruption and resident KV-cache flips (see fault.TargetMix); the
	// remainder stays transient activation flips. The zero value reproduces
	// the historical activation-only sampling — and its journal
	// fingerprint — exactly.
	Targets fault.TargetMix
	Dataset *data.Dataset
	// Trials is the total number of fault injections, spread round-robin
	// over the dataset inputs.
	Trials   int
	BaseSeed int64
	Window   Window
	// GPU selects the reference hardware for the time-uniform fault
	// exposure model (zero value: A100). Reliability is hardware-independent
	// (Sec. 5.2.4) up to the prefill/decode time ratio this supplies.
	GPU perfmodel.GPU
	// PrefillWeight overrides the prefill pass's execution-time weight in
	// decode-step equivalents; 0 derives it from the GPU performance model
	// and the dataset's reference workload.
	PrefillWeight float64
	// Workers caps the pool size (default GOMAXPROCS).
	Workers int

	// NoFork disables golden-checkpoint forking: every trial re-executes
	// its full prefill + decode from scratch. Forked and unforked campaigns
	// are bit-identical (greedy decode over the deterministic engine), so
	// this is purely an escape hatch / baseline for benchmarks; it is
	// excluded from the journal fingerprint and -resume interoperates
	// across forked and unforked runs.
	NoFork bool
	// CheckpointStride is the decode-step distance between recorded golden
	// checkpoints (see fork.go); 0 derives ⌈√GenTokens⌉. The stride bounds
	// checkpoint memory at ⌈(GenTokens−1)/stride⌉ × Blocks × 2 × rows ×
	// Hidden floats per input.
	CheckpointStride int

	// TrialTimeout is the per-trial watchdog budget: a trial is aborted and
	// classified TrialTimeout when the inference makes no token progress
	// (prefill counts as the first token) for this long. 0 disables the
	// watchdog.
	TrialTimeout time.Duration
	// TrialRetries bounds how many times a failed trial is re-attempted
	// before it is recorded as Failed. 0 means the default of 1 retry;
	// negative disables retries. Per-trial seeding makes retries safe: a
	// retried trial reproduces the identical fault site.
	TrialRetries int
	// Journal, when non-nil, checkpoints every classified outcome and
	// replays outcomes already recorded for this spec's Fingerprint before
	// executing the remaining trials.
	Journal *Journal
	// TrialHook, when non-nil, supplies an extra forward hook per trial,
	// registered right after the fault injector. It is the chaos-testing
	// seam (a hook that panics simulates a crashed trial) and is excluded
	// from the spec fingerprint.
	TrialHook func(trial int) model.Hook
}

// retryBudget resolves the per-trial retry count.
func (s Spec) retryBudget() int {
	switch {
	case s.TrialRetries > 0:
		return s.TrialRetries
	case s.TrialRetries < 0:
		return 0
	default:
		return 1
	}
}

// prefillWeight resolves the effective prefill time weight.
func (s Spec) prefillWeight() float64 {
	if s.PrefillWeight > 0 {
		return s.PrefillWeight
	}
	g := s.GPU
	if g.Name == "" {
		g = perfmodel.A100
	}
	return perfmodel.PrefillStepWeight(g, perfmodel.Workload{
		Params:       s.ModelCfg.RefParams,
		PromptTokens: s.Dataset.RefPromptTokens,
		GenTokens:    s.Dataset.GenTokens,
		DType:        s.DType,
	})
}

// maxRecordedErrors caps Result.Errors so a systematically failing campaign
// cannot balloon memory; FailuresByKind still counts every failure.
const maxRecordedErrors = 16

// Result aggregates a campaign cell. When the campaign was canceled or some
// trials failed, the statistics cover the completed trials only (the
// binomial CIs remain correct at the reduced trial count) and the
// Completed/Failed/Skipped breakdown plus the error taxonomy report what
// happened to the rest.
type Result struct {
	SDC stats.Proportion
	// ByKind breaks SDC rate down by the layer kind the fault hit.
	ByKind map[model.LayerKind]stats.Proportion
	// Corrections sums the protection corrections over all trials.
	Corrections protect.CorrectionStats

	// Completed counts classified trials (== SDC.Trials), including trials
	// replayed from the journal.
	Completed int
	// Failed counts trials that exhausted their retry budget.
	Failed int
	// Skipped counts trials never executed (campaign canceled or deadline
	// exceeded before they were reached).
	Skipped int
	// FailuresByKind breaks Failed down by the error taxonomy; nil when no
	// trial failed.
	FailuresByKind map[TrialErrorKind]int
	// Errors holds the first maxRecordedErrors trial failures, sorted by
	// trial index.
	Errors []*TrialError
}

// Partial reports whether the result covers fewer than the spec's trials.
func (r Result) Partial() bool { return r.Failed > 0 || r.Skipped > 0 }

// ErrorSummaries renders the recorded trial failures as strings (for
// report rendering without importing this package's types).
func (r Result) ErrorSummaries() []string {
	out := make([]string, len(r.Errors))
	for i, e := range r.Errors {
		out[i] = e.Error()
	}
	return out
}

// add folds one classified outcome into the aggregate.
func (r *Result) add(o trialOutcome) {
	r.Completed++
	r.SDC.Trials++
	kp := r.ByKind[o.kind]
	kp.Trials++
	if o.sdc {
		r.SDC.Successes++
		kp.Successes++
	}
	r.ByKind[o.kind] = kp
	r.Corrections.OutOfBound += o.corr.OutOfBound
	r.Corrections.NaN += o.corr.NaN
}

// addFailure folds one exhausted trial failure into the aggregate.
func (r *Result) addFailure(te *TrialError) {
	r.Failed++
	if r.FailuresByKind == nil {
		r.FailuresByKind = make(map[TrialErrorKind]int)
	}
	r.FailuresByKind[te.Kind]++
	if len(r.Errors) < maxRecordedErrors {
		r.Errors = append(r.Errors, te)
	}
}

// trialOutcome carries one classified trial back to the aggregator.
type trialOutcome struct {
	kind model.LayerKind
	sdc  bool
	corr protect.CorrectionStats
}

// trialResult pairs a trial index with either its outcome or its failure.
type trialResult struct {
	idx     int
	outcome trialOutcome
	err     *TrialError
}

// Run executes the campaign without cancellation (context.Background()).
func Run(spec Spec) (Result, error) { return RunContext(context.Background(), spec) }

// RunContext executes the campaign under ctx. On cancellation or deadline
// expiry it returns the partial Result aggregated over the trials that
// completed (journal-replayed trials included) together with ctx.Err();
// callers can render the partial statistics — the binomial CIs are correct
// at the reduced trial count — and resume later from the journal.
//
// Individual trial failures do not abort the campaign: they are retried
// within Spec's retry budget and then recorded in the Result's error
// taxonomy. RunContext returns a non-nil error only for invalid specs,
// context cancellation, journal write failures, or when every executed
// trial failed (the joined trial errors).
func RunContext(ctx context.Context, spec Spec) (Result, error) {
	if err := spec.validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}

	res := Result{ByKind: make(map[model.LayerKind]stats.Proportion)}

	// Replay journal-checkpointed outcomes, then work out what remains.
	var fp string
	var replayed map[int]trialOutcome
	if spec.Journal != nil {
		fp = spec.Fingerprint()
		replayed = spec.Journal.completed(fp, spec.Trials)
		// Deterministic fold order (trial outcomes commute, but keep the
		// aggregation order-independent of map iteration anyway).
		idxs := make([]int, 0, len(replayed))
		for idx := range replayed {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			res.add(replayed[idx])
		}
	}
	pending := make([]int, 0, spec.Trials-len(replayed))
	for i := 0; i < spec.Trials; i++ {
		if _, done := replayed[i]; !done {
			pending = append(pending, i)
		}
	}
	if len(pending) == 0 {
		return res, nil
	}

	if spec.Journal != nil {
		if err := spec.Journal.recordSpec(fp, spec.describe()); err != nil {
			return res, err
		}
	}

	// Golden (fault-free, unprotected) generations, shared read-only.
	golden, err := goldenOutputs(ctx, spec)
	if err != nil {
		res.Skipped = spec.Trials - res.Completed
		return res, err
	}

	// Golden checkpoints of the fault-free *protected* runs, shared
	// read-only: decode-window trials restore the nearest checkpoint below
	// their injection step instead of re-executing the whole prefix.
	forks, err := buildForkStore(ctx, spec)
	if err != nil {
		res.Skipped = spec.Trials - res.Completed
		return res, err
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	trialIdx := make(chan int, len(pending))
	for _, i := range pending {
		trialIdx <- i
	}
	close(trialIdx)

	results := make(chan trialResult, len(pending))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWorker(ctx, spec, golden, forks, trialIdx, results)
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Aggregate and checkpoint as outcomes arrive, so an interrupt can
	// never lose a classified trial.
	var journalErr error
	for tr := range results {
		if tr.err != nil {
			res.addFailure(tr.err)
			if spec.Journal != nil && journalErr == nil {
				journalErr = spec.Journal.recordFailure(fp, tr.err)
			}
			continue
		}
		res.add(tr.outcome)
		if spec.Journal != nil && journalErr == nil {
			journalErr = spec.Journal.recordOutcome(fp, tr.idx, tr.outcome)
		}
	}
	res.Skipped = spec.Trials - res.Completed - res.Failed
	sort.Slice(res.Errors, func(i, j int) bool { return res.Errors[i].Trial < res.Errors[j].Trial })

	switch {
	case ctx.Err() != nil:
		return res, ctx.Err()
	case journalErr != nil:
		return res, journalErr
	case res.Completed == 0 && res.Failed > 0:
		errs := make([]error, len(res.Errors))
		for i, te := range res.Errors {
			errs[i] = te
		}
		return res, fmt.Errorf("campaign: all %d executed trials failed: %w", res.Failed, errors.Join(errs...))
	}
	return res, nil
}

// describe renders the spec's identity for the journal's human-readable
// header line.
func (s Spec) describe() string {
	return fmt.Sprintf("model=%s dataset=%s fault=%v method=%v window=%v trials=%d seed=%d",
		s.ModelCfg.Name, s.Dataset.Name, s.Fault, s.Method, s.Window, s.Trials, s.BaseSeed)
}

func (s Spec) validate() error {
	switch {
	case s.Dataset == nil:
		return fmt.Errorf("campaign: no dataset")
	case len(s.Dataset.Inputs) == 0:
		return fmt.Errorf("campaign: dataset %s has no inputs", s.Dataset.Name)
	case s.Trials <= 0:
		return fmt.Errorf("campaign: non-positive trial count")
	case s.Window == WindowFollowing && s.Dataset.GenTokens < 2:
		// fault.Plan.SampleFollowing would panic inside a worker goroutine;
		// reject the degenerate window here instead.
		return fmt.Errorf("campaign: window %v needs at least 2 generated tokens, dataset %s generates %d",
			s.Window, s.Dataset.Name, s.Dataset.GenTokens)
	case s.Targets.Weight < 0 || s.Targets.KV < 0 || s.Targets.Weight+s.Targets.KV > 1:
		return fmt.Errorf("campaign: invalid target mix weight=%g kv=%g", s.Targets.Weight, s.Targets.KV)
	case s.Targets.KV > 0 && s.Dataset.GenTokens < 2:
		// fault.Plan.SampleKV would panic: the cache is only consulted from
		// the first decode step on.
		return fmt.Errorf("campaign: KV-cache targets need at least 2 generated tokens, dataset %s generates %d",
			s.Dataset.Name, s.Dataset.GenTokens)
	case s.needsOfflineBounds() && s.OfflineBounds == nil:
		return fmt.Errorf("campaign: method %v requires offline bounds", s.Method)
	}
	if _, err := s.Policy.Compile(s.ModelCfg.Family); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return s.ModelCfg.Validate()
}

func (s Spec) needsOfflineBounds() bool {
	if s.Policy != nil {
		// A policy derives everything it needs online: FT2 bounds from the
		// first token, ABFT reference sums at build time.
		return false
	}
	if s.CustomCoverage != nil {
		return true
	}
	switch s.Method {
	case arch.MethodRanger, arch.MethodMaxiMals, arch.MethodGlobalClipper, arch.MethodFT2Offline:
		return true
	default:
		return false
	}
}

// protection builds the spec's protection controller over replica m, or nil
// when the spec runs unprotected: every mechanism is the one controller under
// a different policy.
func (s Spec) protection(m *model.Model) *core.FT2 {
	switch {
	case s.Policy != nil:
		// refs nil: the replica is pristine here, so the controller captures
		// its own ABFT reference sums at build time.
		return core.NewHybrid(m, s.FT2Opts, s.Policy, nil)
	case s.UseDMR:
		dup := &protect.Policy{Tiers: make(map[model.LayerKind]protect.Tier)}
		for _, k := range m.Cfg.Family.LayerKinds() {
			dup.Tiers[k] = protect.TierDMR
		}
		return core.NewHybrid(m, s.FT2Opts, dup, nil)
	case s.CustomCoverage != nil:
		return core.NewOffline(m, core.Options{ScaleFactor: 1}, s.CustomCoverage, s.OfflineBounds, true)
	case s.Method == arch.MethodNone:
		return nil
	case s.Method == arch.MethodFT2:
		return core.New(m, s.FT2Opts)
	}
	return offlineMethod(m, s.Method, s.OfflineBounds, protect.ClipToBound)
}

// offlineMethod builds one of the paper's offline-profiling methods over a
// statically profiled bounds store. All of them clamp out-of-bound values to
// the violated bound (the original Ranger behaviour; clip-to-zero is an
// explicit ablation via mode). MaxiMals additionally applies its own 1.25×
// bound scaling, the technique FT2's bound scaling is inspired by (Sec.
// 4.2.1).
func offlineMethod(m *model.Model, method arch.Method, bounds *protect.Store, mode protect.ClipMode) *core.FT2 {
	opts := core.Options{ScaleFactor: 1, Mode: mode}
	if method == arch.MethodMaxiMals {
		opts.ScaleFactor = 1.25
	}
	return core.NewOffline(m, opts, arch.Coverage(method, m.Cfg.Family), bounds, arch.CorrectsNaN(method))
}

// goldenOutputs computes the fault-free unprotected generation per input.
func goldenOutputs(ctx context.Context, spec Spec) ([][]int, error) {
	m, err := model.New(spec.ModelCfg, spec.ModelSeed, spec.DType)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(spec.Dataset.Inputs))
	for i, in := range spec.Dataset.Inputs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = m.Generate(in.Prompt, spec.Dataset.GenTokens)
	}
	return out, nil
}

// runWorker pulls trials from trialIdx and runs them on its own model
// replica. A worker never sinks the pool: trial failures (including
// panics) are retried within the spec's budget and then reported as
// classified failures, and a replica poisoned by a panic is replaced
// before the next attempt. The worker stops early only on context
// cancellation — unreached trials are counted as Skipped by the caller.
func runWorker(ctx context.Context, spec Spec, golden [][]int, forks *forkStore, trialIdx <-chan int, results chan<- trialResult) {
	var r *trialRunner
	budget := spec.retryBudget()
	for idx := range trialIdx {
		if ctx.Err() != nil {
			return
		}
		var terr *TrialError
		for attempt := 0; attempt <= budget; attempt++ {
			if r == nil || r.dirty {
				nr, err := newTrialRunner(spec, golden, forks)
				if err != nil {
					r = nil
					terr = &TrialError{Trial: idx, Kind: TrialModelError, Attempts: attempt + 1, Err: err}
					continue
				}
				r = nr
			}
			var o trialOutcome
			o, terr = r.runGuarded(ctx, idx)
			if terr == nil {
				results <- trialResult{idx: idx, outcome: o}
				break
			}
			if terr.Kind == trialCanceled {
				// Cancellation mid-trial is a skip, not a failure.
				return
			}
			terr.Attempts = attempt + 1
		}
		if terr != nil {
			results <- trialResult{idx: idx, err: terr}
		}
	}
}

// watchdog aborts a trial from inside the forward pass when the campaign
// context is canceled or the inference makes no token progress within the
// budget. It interposes as the last forward hook, so its cancellation
// latency is one linear layer.
type watchdog struct {
	ctx      context.Context
	budget   time.Duration
	deadline time.Time
	lastStep int
}

func newWatchdog(ctx context.Context, budget time.Duration) *watchdog {
	w := &watchdog{ctx: ctx, budget: budget, lastStep: -1}
	if budget > 0 {
		w.deadline = time.Now().Add(budget)
	}
	return w
}

func (w *watchdog) hook(hc model.HookCtx, _ *tensor.Tensor) {
	if w.ctx.Err() != nil {
		panic(trialAbort{kind: trialCanceled, err: w.ctx.Err()})
	}
	if w.budget <= 0 {
		return
	}
	now := time.Now()
	if hc.Step != w.lastStep {
		w.lastStep = hc.Step
		w.deadline = now.Add(w.budget)
		return
	}
	if now.After(w.deadline) {
		panic(trialAbort{kind: TrialTimeout,
			err: fmt.Errorf("no token progress within %v at step %d", w.budget, hc.Step)})
	}
}

// trialRunner owns one model replica plus every piece of per-trial state
// that survives across trials: the reseedable RNG, sampling plans keyed by
// prompt length, the single-fault injector, and the protection controller for
// the spec's fixed method. Reusing them keeps the steady-state trial cost
// at the generate pass itself — the model's scratch arena already makes
// that pass allocation-free — instead of rebuilding plans, RNG state and
// protector scratch on every trial.
type trialRunner struct {
	spec   Spec
	golden [][]int
	forks  *forkStore // nil when forking is disabled
	m      *model.Model
	rng    *rand.Rand
	weight float64             // prefill weight, resolved once
	plans  map[int]*fault.Plan // keyed by prompt length
	inj    fault.Injector
	ctl    *core.FT2 // the spec's protection; nil when it runs unprotected
	outBuf []int     // reused per-trial output buffer, cap GenTokens
	// dirty marks the replica as possibly poisoned (a panic escaped a
	// trial); the worker replaces the runner before reusing it.
	dirty bool
}

func newTrialRunner(spec Spec, golden [][]int, forks *forkStore) (*trialRunner, error) {
	m, err := model.New(spec.ModelCfg, spec.ModelSeed, spec.DType)
	if err != nil {
		return nil, err
	}
	r := &trialRunner{
		spec:   spec,
		golden: golden,
		forks:  forks,
		m:      m,
		rng:    rand.New(rand.NewSource(1)),
		weight: spec.prefillWeight(),
		plans:  make(map[int]*fault.Plan),
		ctl:    spec.protection(m),
		outBuf: make([]int, 0, spec.Dataset.GenTokens),
	}
	return r, nil
}

// runGuarded is the per-trial fault-isolation boundary: it converts panics
// (from the engine, a hook, or the watchdog's abort) into typed TrialErrors
// and guarantees — via defer — that no hooks survive the trial, so a failed
// trial can never poison the next one's replica.
func (r *trialRunner) runGuarded(ctx context.Context, idx int) (o trialOutcome, terr *TrialError) {
	defer func() {
		r.m.ClearHooks()
		if p := recover(); p != nil {
			r.dirty = true
			if ab, ok := p.(trialAbort); ok {
				terr = &TrialError{Trial: idx, Kind: ab.kind, Err: ab.err}
				return
			}
			terr = &TrialError{Trial: idx, Kind: TrialPanic,
				Err: fmt.Errorf("%v", p), Stack: string(debug.Stack())}
		}
	}()
	return r.run(ctx, idx)
}

// arm installs the protection hook for one run on the replica: rearmed for a
// fresh inference, or resumed from a golden checkpoint's fork state.
func (r *trialRunner) arm(fork *core.ForkState) {
	if r.ctl == nil {
		return
	}
	if fork != nil {
		r.ctl.ResumeFork(*fork)
	} else {
		r.ctl.Reset()
	}
	r.ctl.Install()
}

func (r *trialRunner) run(ctx context.Context, idx int) (trialOutcome, *TrialError) {
	spec := r.spec
	input := spec.Dataset.Inputs[idx%len(spec.Dataset.Inputs)]
	r.rng.Seed(spec.BaseSeed + int64(idx)*0x9E3779B9 + 1)

	plan := r.plans[len(input.Prompt)]
	if plan == nil {
		plan = fault.NewPlan(spec.ModelCfg, len(input.Prompt), spec.Dataset.GenTokens, spec.DType, spec.Fault, r.weight)
		plan.Mix = spec.Targets
		r.plans[len(input.Prompt)] = plan
	}
	var site fault.Site
	switch spec.Window {
	case WindowFirstToken:
		site = plan.SampleFirstToken(r.rng)
	case WindowFollowing:
		site = plan.SampleFollowing(r.rng)
	default:
		site = plan.Sample(r.rng)
	}
	return r.runWithSite(ctx, idx, site)
}

// runWithSite executes one trial at a pre-sampled fault site. When the site
// lands in the decode window and golden checkpoints exist, the trial forks:
// it restores the nearest checkpoint at or below the injection step and
// decodes only the suffix; otherwise it runs the full prefill + decode.
// Greedy decode over the deterministic engine makes the two paths
// bit-identical — same tokens, same hook sequence from the restored step
// on, same correction counters, same SDC classification.
func (r *trialRunner) runWithSite(ctx context.Context, idx int, site fault.Site) (trialOutcome, *TrialError) {
	spec, m := r.spec, r.m
	inputIdx := idx % len(spec.Dataset.Inputs)
	input := spec.Dataset.Inputs[inputIdx]
	r.inj = fault.Injector{Site: site, DType: spec.DType, M: m}
	// A weight-target trial corrupts the shared replica persistently — for
	// exactly the duration of its own inference. Revert restores the flipped
	// element afterwards (no-op for transient targets), so the next trial
	// starts from clean weights without rebuilding the replica.
	defer r.inj.Revert()

	var cp *forkPoint
	if r.forks != nil && site.Step >= 1 {
		cp = r.forks.nearest(inputIdx, site.Step)
	}

	// Hook order matters: the injector corrupts the layer output first, the
	// protection then gets its chance to detect/correct; the watchdog runs
	// last. Hooks are cleared by runGuarded's defer even when the trial
	// panics.
	m.ClearHooks()
	m.RegisterHook(r.inj.Hook())
	if spec.TrialHook != nil {
		if h := spec.TrialHook(idx); h != nil {
			m.RegisterHook(h)
		}
	}
	armWatchdog := func() {
		if spec.TrialTimeout > 0 || ctx.Done() != nil {
			m.RegisterHook(newWatchdog(ctx, spec.TrialTimeout).hook)
		}
	}

	var out []int
	if cp != nil {
		// Forked trial: protection counters resume from their values at the
		// checkpoint, the token prefix comes from the recorded fault-free
		// protected generation, and only steps NextStep.. are re-executed.
		fi := &r.forks.inputs[inputIdx]
		r.arm(&core.ForkState{Bounds: fi.ftBounds, FirstTokenNaN: cp.ftNaN, Stats: cp.corr})
		armWatchdog()
		out = append(r.outBuf[:0], fi.out[:cp.snap.NextStep()]...)
		tok := m.Restore(&cp.snap)
		for s := cp.snap.NextStep(); s < spec.Dataset.GenTokens; s++ {
			tok = m.DecodeStep(tok)
			out = append(out, tok)
		}
	} else {
		r.arm(nil)
		armWatchdog()
		out = m.GenerateInto(r.outBuf, input.Prompt, spec.Dataset.GenTokens)
	}

	var corr protect.CorrectionStats
	if r.ctl != nil {
		corr = r.ctl.Stats()
		corr.NaN += r.ctl.FirstTokenNaNCount()
		// Fold the exact-repair stages in as events (detections + DMR
		// fixes), keeping the journal's OOB/NaN schema unchanged.
		ex := r.ctl.DrainCounts()
		corr.OutOfBound += int(ex.ABFT.Detected + ex.DMRFixed)
	}

	if !r.inj.Fired {
		return trialOutcome{}, &TrialError{Trial: idx, Kind: TrialInjectorNeverFired,
			Err: fmt.Errorf("injector never fired at %v", site)}
	}
	return trialOutcome{
		kind: site.Layer.Kind,
		sdc:  !spec.Dataset.IsMasked(r.golden[input.ID], out),
		corr: corr,
	}, nil
}

// FaultFreeCorrectness measures, without any fault injection, the fraction
// of inputs whose protected generation is still (semantically) correct —
// the Figure 3 experiment. bounds are the profiled bounds to protect with;
// method selects the coverage; mode selects the out-of-bound correction
// target (the paper's Figure 3 applies the existing clip-to-zero range
// restriction, which is what makes misaligned bounds destructive).
func FaultFreeCorrectness(cfg model.Config, seed int64, d numerics.DType,
	ds *data.Dataset, method arch.Method, bounds *protect.Store, mode protect.ClipMode) (stats.Proportion, protect.CorrectionStats, error) {

	m, err := model.New(cfg, seed, d)
	if err != nil {
		return stats.Proportion{}, protect.CorrectionStats{}, err
	}
	var p stats.Proportion
	var corr protect.CorrectionStats
	for _, in := range ds.Inputs {
		m.ClearHooks()
		golden := m.Generate(in.Prompt, ds.GenTokens)

		out := golden
		if method != arch.MethodNone {
			var f *core.FT2
			if method == arch.MethodFT2 {
				f = core.New(m, core.Defaults())
			} else {
				f = offlineMethod(m, method, bounds, mode)
			}
			f.Install()
			out = f.Generate(in.Prompt, ds.GenTokens)
			corr.OutOfBound += f.Stats().OutOfBound
			corr.NaN += f.Stats().NaN
			m.ClearHooks()
		}
		p.Trials++
		if ds.IsMasked(golden, out) {
			p.Successes++
		}
	}
	return p, corr, nil
}
