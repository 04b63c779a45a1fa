package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ft2/internal/arch"
	"ft2/internal/model"
	"ft2/internal/tensor"
)

// statsEqual compares the statistical content of two results (the part that
// must be bit-identical across worker counts and journal resumes).
func statsEqual(a, b Result) bool {
	return a.SDC == b.SDC &&
		reflect.DeepEqual(a.ByKind, b.ByKind) &&
		a.Corrections == b.Corrections &&
		a.Completed == b.Completed && a.Failed == b.Failed && a.Skipped == b.Skipped
}

// TestRunDeterministicAcrossWorkerCounts: same BaseSeed must yield an
// identical Result for 1, 4 and GOMAXPROCS workers.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := baseSpec(t, arch.MethodFT2)
	spec.Trials = 40
	var ref Result
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		spec.Workers = workers
		res, err := Run(spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Completed != spec.Trials || res.Failed != 0 || res.Skipped != 0 {
			t.Fatalf("workers=%d: breakdown %d/%d/%d, want %d/0/0",
				workers, res.Completed, res.Failed, res.Skipped, spec.Trials)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !statsEqual(ref, res) {
			t.Errorf("workers=%d: result differs from workers=1: %+v vs %+v", workers, res, ref)
		}
	}
}

// TestJournalResumeBitIdentical: a campaign interrupted after a prefix of
// trials and resumed from its journal must be bit-identical to an
// uninterrupted run, at several worker counts.
func TestJournalResumeBitIdentical(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Trials = 30

	clean, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.jsonl")

		// Phase 1: run with a journal, canceling once half the trials have
		// been classified.
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var classified atomic.Int64
		interrupted := spec
		interrupted.Workers = workers
		interrupted.Journal = j
		interrupted.TrialHook = func(trial int) model.Hook {
			return func(hc model.HookCtx, _ *tensor.Tensor) {
				if hc.Step == 0 && classified.Add(1) > int64(spec.Trials/2)*20 {
					cancel()
				}
			}
		}
		partial, err := RunContext(ctx, interrupted)
		cancel()
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d interrupted run: %v", workers, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if partial.Completed+partial.Skipped != spec.Trials || partial.Failed != 0 {
			t.Fatalf("workers=%d partial breakdown %d/%d/%d inconsistent",
				workers, partial.Completed, partial.Failed, partial.Skipped)
		}

		// Phase 2: resume from the journal; only the missing trials run.
		j2, err := OpenJournal(path, true)
		if err != nil {
			t.Fatal(err)
		}
		already := j2.CompletedTrials(spec.Fingerprint())
		if already != partial.Completed {
			t.Errorf("workers=%d: journal holds %d outcomes, partial result says %d",
				workers, already, partial.Completed)
		}
		resumed := spec
		resumed.Workers = workers
		resumed.Journal = j2
		got, err := RunContext(context.Background(), resumed)
		if err != nil {
			t.Fatalf("workers=%d resume: %v", workers, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		if !statsEqual(clean, got) {
			t.Errorf("workers=%d: resumed result differs from uninterrupted:\n got %+v\nwant %+v",
				workers, got, clean)
		}
	}
}

// TestJournalReplaySkipsCompletedTrials: resuming a fully-journaled
// campaign runs zero trials (no model is even built) and reproduces the
// result exactly.
func TestJournalReplaySkipsCompletedTrials(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Trials = 20
	path := filepath.Join(t.TempDir(), "journal.jsonl")

	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	spec.Journal = j
	first, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	spec.Journal = j2
	// Any trial executed now would fail loudly.
	spec.TrialHook = func(trial int) model.Hook {
		t.Errorf("trial %d executed despite full journal", trial)
		return nil
	}
	replayed, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(first, replayed) {
		t.Errorf("replayed result differs:\n got %+v\nwant %+v", replayed, first)
	}
}

// TestChaosPanicIsolated: a hook that panics on a chosen trial must not
// kill the campaign — the trial is retried, fails with TrialPanic, the
// remaining trials complete, and no hooks are left on any replica.
func TestChaosPanicIsolated(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Trials = 20
	spec.Workers = 4
	const victim = 7
	spec.TrialHook = func(trial int) model.Hook {
		return func(hc model.HookCtx, _ *tensor.Tensor) {
			if trial == victim {
				panic("chaos: injected trial crash")
			}
		}
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatalf("campaign must survive a panicking trial, got %v", err)
	}
	if res.Completed != spec.Trials-1 || res.Failed != 1 || res.Skipped != 0 {
		t.Fatalf("breakdown %d/%d/%d, want %d/1/0", res.Completed, res.Failed, res.Skipped, spec.Trials-1)
	}
	if res.FailuresByKind[TrialPanic] != 1 {
		t.Errorf("FailuresByKind = %v, want one %v", res.FailuresByKind, TrialPanic)
	}
	if len(res.Errors) != 1 {
		t.Fatalf("Errors = %v, want exactly one", res.Errors)
	}
	te := res.Errors[0]
	if te.Trial != victim || te.Kind != TrialPanic || te.Stack == "" || te.Attempts != 2 {
		t.Errorf("TrialError = %+v, want trial %d, kind panic, stack, 2 attempts", te, victim)
	}
	if !res.Partial() {
		t.Error("a result with a failed trial must report Partial()")
	}
}

// TestChaosPanicLeavesNoHooks drives the recovery boundary directly: after
// a panicking trial the replica must have zero registered hooks and be
// marked for replacement.
func TestChaosPanicLeavesNoHooks(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.TrialHook = func(trial int) model.Hook {
		return func(hc model.HookCtx, _ *tensor.Tensor) { panic("chaos") }
	}
	base := model.MustNew(spec.ModelCfg, spec.ModelSeed, spec.DType)
	golden, err := goldenOutputs(context.Background(), spec, base)
	if err != nil {
		t.Fatal(err)
	}
	r := newTrialRunner(spec, base, golden, nil)
	_, terr := r.runGuarded(context.Background(), 3)
	if terr == nil || terr.Kind != TrialPanic {
		t.Fatalf("want TrialPanic, got %v", terr)
	}
	if n := r.m.HookCount(); n != 0 {
		t.Errorf("%d hooks left registered on the replica after a panicking trial", n)
	}
	if !r.dirty {
		t.Error("a panicked replica must be marked for replacement")
	}

	// A transiently panicking trial succeeds on retry through the pool.
	var calls atomic.Int64
	spec.TrialHook = func(trial int) model.Hook {
		return func(hc model.HookCtx, _ *tensor.Tensor) {
			if calls.Add(1) == 1 {
				panic("chaos: transient")
			}
		}
	}
	spec.Trials = 1
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 || res.Failed != 0 {
		t.Errorf("transient panic must be retried to success, got %+v", res)
	}
}

// TestRunContextCancellationPartial: cancellation before the campaign
// starts yields no result; cancellation mid-campaign yields a partial
// result with a consistent breakdown and ctx.Err().
func TestRunContextCancellationPartial(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled context: err = %v", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var seen atomic.Int64
	spec.Workers = 2
	spec.TrialHook = func(trial int) model.Hook {
		if seen.Add(1) == 5 {
			cancel2()
		}
		return nil
	}
	res, err := RunContext(ctx2, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Completed == 0 || res.Skipped == 0 {
		t.Errorf("mid-campaign cancel should complete some and skip some trials, got %d/%d/%d",
			res.Completed, res.Failed, res.Skipped)
	}
	if res.Completed+res.Failed+res.Skipped != spec.Trials {
		t.Errorf("breakdown %d/%d/%d does not sum to %d", res.Completed, res.Failed, res.Skipped, spec.Trials)
	}
	if res.SDC.Trials != res.Completed {
		t.Errorf("SDC covers %d trials, breakdown says %d completed", res.SDC.Trials, res.Completed)
	}
	if !res.Partial() {
		t.Error("canceled campaign must report Partial()")
	}
}

// TestTrialTimeoutWatchdog: a trial whose inference stops making token
// progress is aborted and classified TrialTimeout.
func TestTrialTimeoutWatchdog(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Trials = 3
	spec.Workers = 1
	spec.TrialTimeout = 100 * time.Millisecond
	spec.TrialRetries = -1 // a hang is deterministic here; don't retry
	spec.TrialHook = func(trial int) model.Hook {
		return func(hc model.HookCtx, _ *tensor.Tensor) {
			if trial == 1 {
				time.Sleep(250 * time.Millisecond) // stall inside one layer
			}
		}
	}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || res.FailuresByKind[TrialTimeout] != 1 {
		t.Fatalf("want one timeout failure, got breakdown %d/%d/%d, taxonomy %v",
			res.Completed, res.Failed, res.Skipped, res.FailuresByKind)
	}
	if res.Completed != 2 {
		t.Errorf("non-stalled trials must complete, got %d", res.Completed)
	}
}

// TestRejectFollowingWindowWithoutDecodeSteps is the regression test for
// the Spec.validate gap: WindowFollowing with GenTokens < 2 used to panic
// inside a worker goroutine via Plan.SampleFollowing.
func TestRejectFollowingWindowWithoutDecodeSteps(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Window = WindowFollowing
	spec.Dataset.GenTokens = 1
	_, err := Run(spec)
	if err == nil {
		t.Fatal("WindowFollowing with GenTokens=1 must be rejected at validation")
	}
	if te := new(TrialError); errors.As(err, &te) {
		t.Errorf("degenerate window must fail validation, not reach a worker: %v", err)
	}
}

// TestAllTrialsFailedSurfacesEveryError: when every trial fails, Run
// returns the partial aggregation plus a joined error that surfaces more
// than just the first failure.
func TestAllTrialsFailedSurfacesEveryError(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Trials = 4
	spec.Workers = 2
	spec.TrialRetries = -1
	spec.TrialHook = func(trial int) model.Hook {
		return func(hc model.HookCtx, _ *tensor.Tensor) { panic(trial) }
	}
	res, err := Run(spec)
	if err == nil {
		t.Fatal("all-failed campaign must return an error")
	}
	if res.Failed != 4 || res.Completed != 0 {
		t.Fatalf("breakdown %d/%d/%d, want 0/4/0", res.Completed, res.Failed, res.Skipped)
	}
	if len(res.Errors) != 4 {
		t.Fatalf("Errors holds %d entries, want all 4", len(res.Errors))
	}
	for i, te := range res.Errors {
		if te.Trial != i {
			t.Errorf("Errors[%d].Trial = %d, want sorted by trial index", i, te.Trial)
		}
	}
	// The joined error must surface more than just the first failure.
	msg := err.Error()
	if !strings.Contains(msg, "trial 0") || !strings.Contains(msg, "trial 3") {
		t.Errorf("joined error must surface multiple failures, got %q", msg)
	}
}

// TestFingerprintStability: fingerprints must be equal for equal specs,
// differ when an outcome-relevant knob changes, and ignore execution-only
// knobs.
func TestFingerprintStability(t *testing.T) {
	a := baseSpec(t, arch.MethodNone)
	b := baseSpec(t, arch.MethodNone)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal specs must have equal fingerprints")
	}
	b.BaseSeed++
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("BaseSeed must be outcome-relevant")
	}
	c := baseSpec(t, arch.MethodNone)
	c.Workers = 7
	c.TrialTimeout = time.Minute
	c.TrialRetries = 3
	if a.Fingerprint() != c.Fingerprint() {
		t.Error("execution-only knobs must not change the fingerprint")
	}
	d := baseSpec(t, arch.MethodRanger)
	if a.Fingerprint() == d.Fingerprint() {
		t.Error("method must be outcome-relevant")
	}
}

// TestJournalTornLineTolerated: a truncated final line (torn write from a
// crash) is skipped on reload; intact entries still replay.
func TestJournalTornLineTolerated(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Trials = 10
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	spec.Journal = j
	full, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("torn journal must still load: %v", err)
	}
	fp := spec.Fingerprint()
	if n := j2.CompletedTrials(fp); n != spec.Trials-1 {
		t.Errorf("torn journal replays %d trials, want %d", n, spec.Trials-1)
	}
	spec.Journal = j2
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !statsEqual(full, res) {
		t.Errorf("re-run after torn journal differs:\n got %+v\nwant %+v", res, full)
	}
}
