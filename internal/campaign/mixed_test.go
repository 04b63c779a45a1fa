package campaign

import (
	"math"
	"strings"
	"testing"

	"ft2/internal/arch"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/protect"
)

// mixedSpec is baseSpec with a weight/KV/activation target mix — the fault
// distribution the chaos and Pareto experiments use.
func mixedSpec(t *testing.T, method arch.Method) Spec {
	t.Helper()
	spec := baseSpec(t, method)
	spec.Targets = fault.TargetMix{Weight: 0.3, KV: 0.25}
	return spec
}

// optPolicy exercises every protection tier over the OPT family's kinds.
func optPolicy() *protect.Policy {
	return &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
		model.QProj:   protect.TierDMR,
		model.KProj:   protect.TierABFT,
		model.VProj:   protect.TierABFTFT2,
		model.OutProj: protect.TierFT2,
		model.FC1:     protect.TierABFTFT2,
		model.FC2:     protect.TierABFTFT2,
	}}
}

// dmrPolicy duplicates every linear layer of the family in place (the
// high-overhead 0%-SDC alternative of the paper's limitations section).
func dmrPolicy(f model.Family) *protect.Policy {
	p := &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{}}
	for _, k := range f.LayerKinds() {
		p.Tiers[k] = protect.TierDMR
	}
	return p
}

// TestRunMixedTargetsDeterministicAcrossWorkers: with weight and KV targets
// in the mix, the campaign must stay order-independent — a weight fault that
// leaked past its own trial (a missing Revert) would make the 1-worker and
// 4-worker schedules diverge, because trial order differs between them.
func TestRunMixedTargetsDeterministicAcrossWorkers(t *testing.T) {
	spec := mixedSpec(t, arch.MethodNone)
	spec.Trials = 40
	spec.Workers = 4
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 1
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(a, b) {
		t.Errorf("mixed-target campaign depends on worker count: %+v vs %+v", a, b)
	}
	if a.Completed != 40 {
		t.Errorf("completed %d of 40 trials", a.Completed)
	}
}

// TestRunPolicyHybrid: the adaptive per-layer policy must run end to end over
// the mixed fault distribution and not lose to the unprotected baseline; its
// exact-correction tiers must actually fire.
func TestRunPolicyHybrid(t *testing.T) {
	unprot, err := Run(mixedSpec(t, arch.MethodNone))
	if err != nil {
		t.Fatal(err)
	}
	spec := mixedSpec(t, arch.MethodNone)
	spec.Policy = optPolicy()
	hy, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if hy.Completed != spec.Trials {
		t.Fatalf("hybrid completed %d of %d trials (failures: %v)", hy.Completed, spec.Trials, hy.ErrorSummaries())
	}
	if hy.SDC.Successes > unprot.SDC.Successes {
		t.Errorf("hybrid SDC count %d exceeds unprotected %d", hy.SDC.Successes, unprot.SDC.Successes)
	}
	if hy.Corrections.Total() == 0 {
		t.Error("hybrid protection never corrected anything across 60 EXP-fault trials")
	}
}

// TestForkedCampaignBitIdenticalMixedPolicy: golden-checkpoint forking must
// stay bit-identical to from-scratch execution when trials corrupt weights
// and KV caches under the hybrid policy controller.
func TestForkedCampaignBitIdenticalMixedPolicy(t *testing.T) {
	spec := mixedSpec(t, arch.MethodNone)
	spec.Policy = optPolicy()
	spec.Trials = 30
	forked, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.NoFork = true
	scratch, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(forked, scratch) {
		t.Errorf("forked mixed/policy result differs from no-fork: %+v vs %+v", forked, scratch)
	}
}

// TestMixedTargetsValidation: degenerate target mixes are rejected up front
// instead of panicking inside a worker goroutine.
func TestMixedTargetsValidation(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Targets = fault.TargetMix{Weight: 0.8, KV: 0.4}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "target mix") {
		t.Errorf("over-unity mix not rejected: %v", err)
	}
	spec = baseSpec(t, arch.MethodNone)
	spec.Targets = fault.TargetMix{KV: 0.5}
	spec.Dataset.GenTokens = 1
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "KV-cache") {
		t.Errorf("KV targets without decode steps not rejected: %v", err)
	}
}

// TestFingerprintMixedAndPolicy: the new spec knobs must alter the journal
// fingerprint when set — and only when set, so journals written before the
// knobs existed keep replaying.
func TestFingerprintMixedAndPolicy(t *testing.T) {
	base := baseSpec(t, arch.MethodNone)
	fp := base.Fingerprint()

	withMix := base
	withMix.Targets = fault.TargetMix{Weight: 0.3, KV: 0.25}
	if withMix.Fingerprint() == fp {
		t.Error("target mix does not alter the fingerprint")
	}
	withPolicy := base
	withPolicy.Policy = optPolicy()
	if withPolicy.Fingerprint() == fp {
		t.Error("policy does not alter the fingerprint")
	}
	otherPolicy := base
	otherPolicy.Policy = &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{model.VProj: protect.TierFT2}}
	if otherPolicy.Fingerprint() == withPolicy.Fingerprint() {
		t.Error("distinct policies share a fingerprint")
	}
}

// A NaN share is not a probability: it fails validation instead of routing
// every draw to activation.
func TestMixedTargetsRejectNaN(t *testing.T) {
	spec := baseSpec(t, arch.MethodNone)
	spec.Targets = fault.TargetMix{Weight: math.NaN()}
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "target mix") {
		t.Errorf("NaN mix not rejected: %v", err)
	}
}
