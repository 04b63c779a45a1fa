package serve

import (
	"ft2/internal/abft"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
)

// replica is one model instance plus its per-batch-slot protection
// controllers. A replica is owned by exactly one scheduler worker; sessions
// borrow it for a slice at a time as items of its ForwardBatch calls.
type replica struct {
	m      *model.Model
	opts   core.Options
	policy *protect.Policy
	refs   *abft.RefSums
	slot   int // pool index, for chaos journaling

	// checksum fingerprints the pristine weights at build time; scrub
	// compares against it to confirm (or clear) a persistent-corruption
	// suspicion.
	checksum uint64
	// tainted marks that chaos injected a persistent weight fault this
	// slice; the owning worker must scrub before the replica serves anyone
	// else.
	tainted bool

	// ctls[i] is the controller protecting the session in batch slot i, and
	// hookFns[i] its hook, bound once (Hook() allocates a method value) so
	// assembling a slice's hook lists allocates nothing. Every controller
	// resumes the session's own fork state at slice start, so counters stay
	// per-session even though the controllers are replica-owned.
	ctls    []*core.FT2
	hookFns []model.Hook
}

// controller returns the slot's protection controller, growing the set on
// demand.
func (r *replica) controller(slot int) *core.FT2 {
	for len(r.ctls) <= slot {
		c := core.NewHybrid(r.m, r.opts, r.policy, r.refs)
		r.ctls = append(r.ctls, c)
		r.hookFns = append(r.hookFns, c.Hook())
	}
	return r.ctls[slot]
}

// scrub re-fingerprints the weights and reports whether they still match
// the build-time checksum — the confirmation step behind a
// persistent-corruption suspicion. Any flipped bit (including one that
// produced a non-finite weight) changes the checksum.
func (r *replica) scrub() bool {
	return r.m.WeightChecksum() == r.checksum
}

// newReplica builds one replica of the pool's model. All replicas of a pool
// share (cfg, seed, dtype) and therefore have bit-identical weights — and
// identical checksums and ABFT reference sums.
func newReplica(cfg model.Config, seed int64, d numerics.DType, opts core.Options, f16 bool, policy *protect.Policy, slot int) (*replica, error) {
	m, err := model.New(cfg, seed, d)
	if err != nil {
		return nil, err
	}
	if f16 {
		m.EnableF16Weights()
	}
	r := &replica{m: m, opts: opts, policy: policy, slot: slot, checksum: m.WeightChecksum()}
	if kinds := policy.Kinds(protect.TierABFT, protect.TierABFTFT2); len(kinds) > 0 {
		r.refs = abft.CaptureRefSums(m, kinds...)
	}
	return r, nil
}

// pool is the fixed set of replicas, one per scheduler worker.
type pool struct {
	cfg      model.Config
	seed     int64
	dtype    numerics.DType
	ft2Opts  core.Options
	f16      bool
	policy   *protect.Policy
	replicas []*replica
}

func newPool(c Config) (*pool, error) {
	p := &pool{cfg: c.ModelCfg, seed: c.Seed, dtype: c.DType, ft2Opts: c.FT2Opts,
		f16: c.WeightsF16, policy: c.ProtectPolicy}
	for i := 0; i < c.Replicas; i++ {
		r, err := newReplica(p.cfg, p.seed, p.dtype, p.ft2Opts, p.f16, p.policy, i)
		if err != nil {
			return nil, err
		}
		p.replicas = append(p.replicas, r)
	}
	return p, nil
}

// rebuild replaces a replica whose state may be poisoned (a panic escaped a
// session slice, or a weight scrub confirmed persistent corruption). The
// scheduler worker that owns the slot calls it before touching the next
// session.
func (p *pool) rebuild(slot int) (*replica, error) {
	return newReplica(p.cfg, p.seed, p.dtype, p.ft2Opts, p.f16, p.policy, slot)
}
