package campaign

import "fmt"

// TrialErrorKind classifies why a trial failed — the error taxonomy of the
// execution-robustness layer. Every failure mode a worker can hit is mapped
// onto one of these kinds so campaign results can report a breakdown
// instead of a single opaque error.
type TrialErrorKind int

const (
	// TrialPanic: the trial's inference (or a hook) panicked; the worker
	// recovered, recorded the stack, and replaced its model replica.
	TrialPanic TrialErrorKind = iota
	// TrialInjectorNeverFired: the planned fault site was never reached, so
	// the trial observed no fault and must not be counted (a mis-planned
	// site would otherwise bias the SDC estimate).
	TrialInjectorNeverFired
	// TrialTimeout: the per-trial watchdog saw no token progress within
	// Spec.TrialTimeout and aborted the inference.
	TrialTimeout
	// trialCanceled is internal bookkeeping: the campaign context was
	// canceled mid-trial. Canceled trials are counted as Skipped, never as
	// Failed, so this kind never appears in a Result.
	trialCanceled
)

// String implements fmt.Stringer.
func (k TrialErrorKind) String() string {
	switch k {
	case TrialPanic:
		return "panic"
	case TrialInjectorNeverFired:
		return "injector-never-fired"
	case TrialTimeout:
		return "timeout"
	case trialCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("TrialErrorKind(%d)", int(k))
	}
}

// TrialError is one classified trial failure. It implements error and
// unwraps to the underlying cause.
type TrialError struct {
	// Trial is the trial index within the campaign.
	Trial int
	// Kind is the taxonomy bucket.
	Kind TrialErrorKind
	// Attempts is how many times the trial was tried before giving up.
	Attempts int
	// Err is the underlying cause (for panics, the recovered value).
	Err error
	// Stack holds the goroutine stack for TrialPanic failures.
	Stack string
}

// Error implements the error interface.
func (e *TrialError) Error() string {
	return fmt.Sprintf("trial %d failed (%s, %d attempts): %v", e.Trial, e.Kind, e.Attempts, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *TrialError) Unwrap() error { return e.Err }

// trialAbort is the panic payload the watchdog hook uses to abort a hung or
// canceled inference from inside the forward pass; the trial recovery
// boundary converts it back into a classified outcome.
type trialAbort struct {
	kind TrialErrorKind
	err  error
}
