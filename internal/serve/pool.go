package serve

import (
	"ft2/internal/abft"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/protect"
)

// replica is one execution context over the pool's weight set plus its
// per-batch-slot protection controllers. A replica is owned by exactly one
// scheduler worker; sessions borrow it for a slice at a time as items of its
// ForwardBatch calls.
type replica struct {
	m    *model.Model
	pool *pool
	slot int // pool index, for chaos journaling

	// tainted marks that chaos injected a persistent weight fault this
	// slice; the owning worker must scrub before the replica serves anyone
	// else.
	tainted bool

	// ctls[i] is the controller protecting or observing the session in batch
	// slot i, and hookFns[i] its hook, bound once (a method value allocates)
	// so assembling a slice's hook lists allocates nothing. Every controller
	// binds the session's own fork state at slice start, so counters stay
	// per-session even though the controllers are replica-owned.
	ctls    []*core.FT2
	hookFns []model.Hook
}

// controller returns the slot's protection controller, growing the set on
// demand.
func (r *replica) controller(slot int) *core.FT2 {
	for len(r.ctls) <= slot {
		c := core.NewHybrid(r.m, r.pool.ft2Opts, r.pool.policy, r.pool.refs)
		r.ctls = append(r.ctls, c)
		r.hookFns = append(r.hookFns, c.Hook())
	}
	return r.ctls[slot]
}

// scrub re-fingerprints the replica's weights and reports whether they
// still match the pool's build-time checksum — the confirmation step behind
// a persistent-corruption suspicion. Any flipped bit (including one that
// produced a non-finite weight) changes the checksum.
func (r *replica) scrub() bool {
	return r.m.WeightChecksum() == r.pool.checksum
}

// pool is the fixed set of replicas, one per scheduler worker, over one
// weight set: the model is built once, and every replica is a Replica of
// it, so the weights are held once however many workers serve them. A
// weight fault privatizes the one matrix it writes in its replica
// (copy-on-write); the rebuild after it re-attaches to the pristine set.
type pool struct {
	// src is a context over the pristine weight set that never serves: it
	// holds no arena or generation state, only the set.
	src     *model.Model
	ft2Opts core.Options
	policy  *protect.Policy
	// checksum and refs are the set's build-time weight checksum and ABFT
	// reference sums (nil without an abft tier), shared by every replica.
	checksum uint64
	refs     *abft.RefSums
	replicas []*replica
}

func newPool(c Config) (*pool, error) {
	m, err := model.New(c.ModelCfg, c.Seed, c.DType)
	if err != nil {
		return nil, err
	}
	if c.WeightsF16 {
		m.EnableF16Weights()
	}
	p := &pool{src: m.Replica(), ft2Opts: c.FT2Opts, policy: c.ProtectPolicy}
	p.checksum = p.src.WeightChecksum()
	if kinds := p.policy.Kinds(protect.TierABFT, protect.TierABFTFT2); len(kinds) > 0 {
		p.refs = abft.CaptureRefSums(p.src, kinds...)
	}
	for i := 0; i < c.Replicas; i++ {
		p.replicas = append(p.replicas, p.rebuild(i))
	}
	return p, nil
}

// rebuild returns a fresh replica for a slot: at build, and to replace one
// whose state may be poisoned (a panic escaped a session slice, or a weight
// scrub confirmed persistent corruption) — a new context over the pristine
// set, nothing regenerated. The scheduler worker that owns the slot calls
// it before touching the next session.
func (p *pool) rebuild(slot int) *replica {
	return &replica{m: p.src.Replica(), pool: p, slot: slot}
}
