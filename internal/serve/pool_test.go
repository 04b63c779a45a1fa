package serve

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"ft2/internal/abft"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/protect"
)

// testPool builds a pool of n replicas over cfg, returned with its
// defaults filled in.
func testPool(t *testing.T, cfg Config, n int) (*pool, Config) {
	t.Helper()
	cfg.Replicas = n
	cfg, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, cfg
}

// privatized lists the linear layers whose matrix r holds a copy of
// instead of sharing the pool's weight set.
func privatized(p *pool, r *replica) []model.LayerRef {
	var own []model.LayerRef
	for _, ref := range r.m.Cfg.LinearLayers() {
		if r.m.ReadWeight(ref) != p.src.ReadWeight(ref) {
			own = append(own, ref)
		}
	}
	return own
}

// TestReplicaWeightFlipStaysLocal: two replicas decode while a weight fault
// fires and reverts on a third. The flip privatizes exactly the one matrix
// it writes in that replica; the decoding replicas keep sharing the set and
// match the oracle bit for bit, the pool's pristine checksum never moves,
// and the replica rebuilt for the slot shares the set again.
func TestReplicaWeightFlipStaysLocal(t *testing.T) {
	p, cfg := testPool(t, testConfig(t), 3)
	for i, r := range p.replicas {
		if own := privatized(p, r); len(own) != 0 {
			t.Fatalf("replica %d holds its own %v at build", i, own)
		}
	}

	prompts := testPrompts(t, 4)
	const maxTokens = 16
	want := make([][]int, 4)
	for i := range want {
		var err error
		if want[i], _, err = Oracle(cfg, prompts(i), maxTokens, false); err != nil {
			t.Fatal(err)
		}
	}

	ref := model.LayerRef{Block: 1, Kind: model.DownProj}
	victim := p.replicas[2]
	inj := fault.Injector{
		Site:  fault.Site{Target: fault.TargetWeight, Layer: ref, Elem: 5, Bits: []int{30}},
		DType: victim.m.DType, M: victim.m,
	}
	var wg sync.WaitGroup
	got := make([][][]int, 2)
	for w := range got {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			for i := range want {
				got[w] = append(got[w], r.m.Generate(prompts(i), maxTokens))
			}
		}(p.replicas[w])
	}
	scrubs := make([]bool, 0, 2*len(want))
	for i := range want {
		inj.Reset()
		inj.Fire(nil)
		victim.m.Generate(prompts(i), maxTokens)
		scrubs = append(scrubs, victim.scrub())
		inj.Revert()
		scrubs = append(scrubs, victim.scrub())
	}
	wg.Wait()

	for i, ok := range scrubs {
		if ok != (i%2 == 1) {
			t.Fatalf("victim scrub %d = %v: must fail while flipped and pass once reverted", i, ok)
		}
	}
	if own := privatized(p, victim); len(own) != 1 || own[0] != ref {
		t.Fatalf("the flip privatized %v in its replica, want exactly [%v]", own, ref)
	}
	for w, outs := range got {
		if own := privatized(p, p.replicas[w]); len(own) != 0 {
			t.Fatalf("replica %d holds its own %v after a sibling's flip", w, own)
		}
		for i, out := range outs {
			if !equalTokens(out, want[i]) {
				t.Fatalf("replica %d prompt %d: %v != oracle %v", w, i, out, want[i])
			}
		}
	}
	if p.src.WeightChecksum() != p.checksum {
		t.Fatal("the pristine weight set's checksum moved")
	}

	inj.Reset()
	inj.Fire(nil)
	if victim.scrub() {
		t.Fatal("scrub passed on a flipped replica")
	}
	nr := p.rebuild(victim.slot)
	if own := privatized(p, nr); len(own) != 0 || !nr.scrub() {
		t.Fatalf("rebuilt replica holds its own %v, scrub %v; want none and true", own, nr.scrub())
	}
}

// TestPoolSharesWeightsUnderABFTPolicy: under a policy with abft and
// abft+ft2 tiers the pool captures the ABFT reference sums once, reading
// the weight set in place, and every controller of every replica checks
// against them; after serving traffic every replica still reads every
// matrix from that one set.
func TestPoolSharesWeightsUnderABFTPolicy(t *testing.T) {
	cfg := testConfig(t)
	cfg.Replicas = 2
	cfg.ProtectPolicy = testPolicy()
	srv := newTestServer(t, cfg)
	st := srv.RunLoad(context.Background(), LoadSpec{
		Clients: 4, Requests: 8, MaxTokens: 8, Protected: true, PromptFor: testPrompts(t, 4),
	})
	if st.Failed > 0 {
		t.Fatalf("%d requests failed: %v", st.Failed, st.Errs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	p := srv.sch.pool
	kinds := p.policy.Kinds(protect.TierABFT, protect.TierABFTFT2)
	fresh := model.MustNew(srv.Config().ModelCfg, cfg.Seed, srv.Config().DType)
	if p.refs == nil || !reflect.DeepEqual(p.refs, abft.CaptureRefSums(fresh, kinds...)) {
		t.Fatal("pool reference sums missing or not the weight set's")
	}
	for i, r := range p.replicas {
		for slot, c := range append(r.ctls, r.controller(len(r.ctls))) {
			if c.RefSums() != p.refs {
				t.Fatalf("replica %d slot %d checks against its own reference sums", i, slot)
			}
		}
		if own := privatized(p, r); len(own) != 0 {
			t.Fatalf("replica %d holds its own %v under an abft policy", i, own)
		}
	}
}
