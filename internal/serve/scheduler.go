package serve

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/core"
	"ft2/internal/fault"
	"ft2/internal/model"
	"ft2/internal/prefixcache"
)

// scheduler implements continuous batching over the replica pool: admitted
// sessions circulate through a ready ring; each worker repeatedly gathers up
// to BatchMax ready sessions into a group, advances the whole group one
// slice on its replica — through model.ForwardBatch calls, so every weight
// matrix streams once per step for the whole group — and puts the survivors
// back. A long generation shares replicas with short ones, a finished
// session frees its slot immediately, and the next queued request is
// admitted mid-flight. A session's phase and next input are its
// model.DecodeState's, which rides BatchItem.State on whichever replica
// drives the slice; its protection state is its own core.ForkState, which a
// slot's controller binds and works on in place (core.FT2.Bind).
//
// With the prefix cache on, a prefill that is still in flight is visible to
// the sessions about to start the same one: they park behind it (leaders,
// followOrLead, release) instead of recomputing rows its entry will serve.
type scheduler struct {
	cfg    Config
	pool   *pool
	mx     *metrics
	chaos  *chaos.Engine      // nil when chaos is off
	prefix *prefixcache.Cache // nil when the prefix cache is off

	nextID atomic.Int64 // session ids for the chaos journal

	mu       sync.RWMutex // guards draining + admit-channel close
	draining bool
	admit    chan *Session           // bounded admission queue
	ready    chan *Session           // circulating active sessions, cap MaxSessions
	slots    chan struct{}           // active-session semaphore, cap MaxSessions
	states   chan *model.DecodeState // recycled session KV states

	// kvRowBytes is what one KV position costs a state: keys and values,
	// every block. horizonShort under-declares every session's horizon by
	// that many rows, so tests can make a slab grow mid-decode; it is 0 in
	// service.
	kvRowBytes   int64
	horizonShort int

	// halt is the parent of every session's context (admitSession):
	// shutdown's haltAll cancels the sessions still live past its grace.
	halt    context.Context
	haltAll context.CancelFunc

	// exports holds each exporting session's lease by id, for
	// /v1/sessions/export, from admission (claimExport: one per id) to settle
	// — a live checkpoint is only useful while the generation is in flight.
	exportMu sync.Mutex
	exports  map[string]*kvLease

	// leaders are the sessions whose in-flight prefill will offer a prefix-
	// cache entry; leadMu guards the list and every Session.followers.
	leadMu  sync.Mutex
	leaders []*Session

	inflight       sync.WaitGroup // admitted sessions not yet finished
	workers        sync.WaitGroup
	dispatcherDone chan struct{}
	drainOnce      sync.Once
	closeOnce      sync.Once
}

func newScheduler(cfg Config, pool *pool, mx *metrics, eng *chaos.Engine) *scheduler {
	sch := &scheduler{
		cfg:            cfg,
		pool:           pool,
		mx:             mx,
		chaos:          eng,
		admit:          make(chan *Session, cfg.QueueDepth),
		ready:          make(chan *Session, cfg.MaxSessions),
		slots:          make(chan struct{}, cfg.MaxSessions),
		states:         make(chan *model.DecodeState, cfg.MaxSessions),
		kvRowBytes:     int64(2 * cfg.ModelCfg.Blocks * cfg.ModelCfg.Hidden * 4),
		exports:        make(map[string]*kvLease),
		dispatcherDone: make(chan struct{}),
	}
	sch.halt, sch.haltAll = context.WithCancel(context.Background())
	if cfg.PrefixCacheMB > 0 {
		sch.prefix = prefixcache.New(int64(cfg.PrefixCacheMB) << 20)
	}
	return sch
}

// start runs the dispatcher and one worker per replica.
func (sch *scheduler) start() *scheduler {
	go sch.dispatch()
	for i := range sch.pool.replicas {
		sch.workers.Add(1)
		go sch.worker(i)
	}
	return sch
}

// admitSession admits a request the Server validated — a prompt to prefill,
// or a decoded snapshot to restore (an import, or with req.Resume a spill
// resume), with its fork state when protected, generating req.MaxTokens
// more tokens from its resume point — and checks only its deadline. The
// returned session is already circulating. Fails fast with ErrQueueFull or
// ErrDraining.
func (sch *scheduler) admitSession(ctx context.Context, req Request, prompt []int, snap *model.Snapshot, fk *core.ForkState) (*Session, error) {
	deadline, err := req.deadline(sch.cfg.DefaultDeadline)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithTimeout(ctx, deadline)
	unhalt := context.AfterFunc(sch.halt, cancel)
	s := &Session{
		req:       req,
		prompt:    prompt,
		ctx:       sctx,
		cancel:    func() { unhalt(); cancel() },
		kv:        kvLease{protected: req.Protected},
		out:       make([]int, 0, req.MaxTokens),
		tokens:    make(chan int, req.MaxTokens),
		done:      make(chan struct{}),
		admitted:  time.Now(),
		id:        sch.nextID.Add(1),
		adoptSnap: snap,
	}
	if fk != nil {
		s.ftState, s.corrBase = *fk, *fk
	}

	sch.mu.RLock()
	defer sch.mu.RUnlock()
	err = ErrDraining
	if !sch.draining {
		err = sch.claimExport(s)
	}
	if err == nil {
		sch.inflight.Add(1)
		select {
		case sch.admit <- s:
			return s, nil
		default:
			sch.inflight.Done()
			sch.dropExport(s)
			err = ErrQueueFull
		}
	}
	s.cancel()
	return nil, err
}

// dispatch moves queued sessions into the ready ring as session slots free
// up. It exits once the admission queue is closed (drain) and empty.
func (sch *scheduler) dispatch() {
	defer close(sch.dispatcherDone)
	for s := range sch.admit {
		sch.slots <- struct{}{} // blocks while MaxSessions are active
		sch.ready <- s          // cap MaxSessions ≥ active: never blocks
	}
}

// group is a worker's reusable slice batch: the sessions fused into this
// slice — mid-prefill and decoding alike — their per-slice step budgets,
// and the assembly buffers for ForwardBatch. Reused across slices so
// steady-state scheduling does not allocate.
type group struct {
	pending  []*Session // gathered from the ready ring
	sessions []*Session // after admit/weed; nil = settled mid-slice
	rem      []int      // steps left this slice (chunk or token), parallel to sessions
	// hooks[i] is session i's BatchItem.Hooks for this slice, assembled once
	// per slice in the campaign runner's order: chaos injectors first (they
	// corrupt the raw output), the protection controller last (it sees the
	// corruption). The inner slices are reused across slices.
	hooks [][]model.Hook
	idx   []int // participant indices of the current step
	items []model.BatchItem
	toks  []int

	// chaos planning buffers, reused across slices.
	views   []chaos.SessionView
	victims []int // group indices behind views, parallel
}

// worker owns one replica slot and drives groups of ready sessions over it.
func (sch *scheduler) worker(idx int) {
	defer sch.workers.Done()
	r := sch.pool.replicas[idx]
	g := &group{}
	for s := range sch.ready {
		r = sch.runSlice(r, g, s)
		// Stale slots would keep settled sessions reachable until overwritten.
		clear(g.pending)
		clear(g.sessions)
	}
}

// runSlice advances one group of sessions by one scheduling slice: gather up
// to BatchMax ready sessions, open the unopened ones (KV state, snapshot
// restore or prefix-cache lookup — no prompt rows yet), bind their fork
// states to the slot controllers, then drive the whole group —
// mid-prefill and decoding sessions alike — through fused mixed-phase
// ForwardBatch steps. Returns the (possibly rebuilt) replica.
func (sch *scheduler) runSlice(r *replica, g *group, first *Session) *replica {
	g.pending = append(g.pending[:0], first)
	// Gather whatever is already ready, then yield up to twice and drain
	// again: a burst of clients submitting at a round boundary needs one
	// scheduler pass for their submits to reach the admit queue and one for
	// the dispatch goroutine to move them to the ready ring. Without the
	// yields the worker races ahead with a singleton group and serves the
	// whole slice alone while the rest of the burst sits queued; with
	// them the burst fuses from the first step. A genuinely lone session
	// pays only two no-op yields — no timer, no added latency.
	for tries := 0; len(g.pending) < sch.cfg.BatchMax; tries++ {
	gather:
		for len(g.pending) < sch.cfg.BatchMax {
			select {
			case s, ok := <-sch.ready:
				if !ok {
					tries = 2 // ring closed: forced shutdown, drive what we hold
					break gather
				}
				g.pending = append(g.pending, s)
			default:
				break gather
			}
		}
		if tries >= 2 {
			break
		}
		runtime.Gosched()
	}

	g.sessions, g.rem = g.sessions[:0], g.rem[:0]
	for _, s := range g.pending {
		if err := s.checkCtx(); err != nil {
			sch.settle(s, err)
			continue
		}
		if s.startAt.IsZero() {
			// First slice: open it; the fused loop below feeds a prompt's rows.
			if s.adoptSnap == nil && sch.prefix != nil && sch.followOrLead(s) {
				continue // parked: its leader's release puts it back on the ring
			}
			if err := sch.open(r, s); err != nil {
				sch.settle(s, err)
				r = sch.replaceReplica(r) // a panic: the replica's state is suspect
				continue
			}
		}
		i := len(g.sessions)
		g.sessions = append(g.sessions, s)
		g.rem = append(g.rem, sch.cfg.SliceSteps)
		if i == len(g.hooks) {
			g.hooks = append(g.hooks, nil)
		}
		g.hooks[i] = g.hooks[i][:0]
	}
	if sch.chaos != nil && len(g.sessions) > 0 {
		sch.applyChaos(r, g)
	}

	// Bind each session's fork state to its slot's controller: a protected
	// one's to protect it — prefill hooks learn into its own store and trail,
	// decode hooks only read the store, both advance its counters — and an
	// unprotected prefill's, which records its entry's trail, to observe.
	for i, s := range g.sessions {
		switch {
		case s.req.Protected:
			r.controller(i).Bind(&s.ftState)
		case s.ftState.Trail != nil:
			r.controller(i).Observe(&s.ftState)
		default:
			continue
		}
		g.hooks[i] = append(g.hooks[i], r.hookFns[i])
	}

	if err := sch.fusedSlice(r, g); err != nil {
		// A panic escaped the engine mid-slice: every session still in the
		// group fails, and the replica's KV/hook state is suspect.
		for _, s := range g.sessions {
			if s != nil {
				sch.settle(s, err)
			}
		}
		return sch.replaceReplica(r)
	}
	return sch.postSlice(r)
}

// applyChaos plans and applies this slice's chaos faults while the worker
// holds the replica and no kernel is running. KV and weight mutations land
// right here at the boundary; activation faults become hooks on the victim's
// hook list (a burst appends several) that fire at their planned step inside
// the slice. Weight faults are replica-global, so the engine only emits them
// when every session in the group opted in; the replica is marked tainted and
// scrubbed in postSlice before it can serve anyone else.
func (sch *scheduler) applyChaos(r *replica, g *group) {
	g.views, g.victims = g.views[:0], g.victims[:0]
	allChaos := true
	for i, s := range g.sessions {
		if !s.req.Chaos {
			allChaos = false
			continue
		}
		if !s.kv.st.Started() {
			// Mid-prefill sessions are never activation/KV victims — the
			// first token defines the FT2 bounds and the oracle baseline, so
			// session-scoped faults only target decoding sessions. They still
			// count toward the weight-fault opt-in gate above.
			continue
		}
		g.views = append(g.views, chaos.SessionView{
			ID: s.id, Step: s.kv.st.Step(), Budget: g.rem[i], Rows: s.kv.st.SeqLen(),
		})
		g.victims = append(g.victims, i)
	}
	for _, f := range sch.chaos.PlanSlice(g.views, allChaos) {
		i := g.victims[f.Session]
		s := g.sessions[i]
		inj := fault.NewInjector(f.Site, sch.chaos.Config().DType)
		ev := chaos.Event{Kind: chaos.EvInject, Target: f.Site.Target.String(),
			Site: f.Site.String(), Session: s.id, Replica: r.slot, Step: f.Site.Step}
		switch f.Site.Target {
		case fault.TargetActivation:
			g.hooks[i] = append(g.hooks[i], inj.Hook())
		case fault.TargetKVCache:
			s.kv.rewrite(sch, inj.Fire)
		case fault.TargetWeight:
			inj.M = r.m
			inj.Fire(nil)
			r.tainted = true
			// Weights are replica-global: every opted-in session in the group —
			// including one whose prefill rows are computed after the flip — may
			// silently diverge.
			for _, o := range g.sessions {
				if o.req.Chaos {
					o.suspect = true
				}
			}
			ev.Session = 0 // the replica's fault, not the drawn victim's
		}
		s.suspect = true
		sch.chaos.Record(ev)
	}
}

// postSlice is the detection-and-recovery boundary run after every slice on
// the owning worker: the controllers' exact-repair counters drain into the
// server metrics, and a replica under persistent-corruption suspicion — chaos
// marked it tainted, or the ABFT tier recomputed a mismatch that would not
// repair (the signature of corrupted weights rather than a transient flip)
// — is scrubbed against the pool's build-time weight checksum and replaced
// by a fresh context over the pristine weight set when the scrub confirms.
// Sessions own their KV and fork state, so they survive the rebuild
// untouched.
func (sch *scheduler) postSlice(r *replica) *replica {
	var exact core.ExactCounts
	for _, c := range r.ctls {
		d := c.DrainCounts()
		exact.ABFT.Add(d.ABFT)
		exact.DMRFixed += d.DMRFixed
	}
	if exact != (core.ExactCounts{}) {
		sch.mx.addExact(exact)
	}
	suspicion := r.tainted || exact.ABFT.Uncorrectable > 0
	r.tainted = false
	if !suspicion || r.scrub() {
		return r
	}
	if sch.chaos != nil {
		sch.chaos.Record(chaos.Event{Kind: chaos.EvScrubDetect, Replica: r.slot})
	}
	nr := sch.replaceReplica(r)
	if sch.chaos != nil {
		sch.chaos.Record(chaos.Event{Kind: chaos.EvRebuild, Replica: nr.slot})
	}
	return nr
}

// followOrLead is the one decision a session takes before its prefill opens,
// atomically under leadMu: when an in-flight prefill (a leader) will put in
// the cache at least PrefillChunk more rows of s's prompt than the cache
// serves right now, s parks behind it — off the ring, slot kept, no goroutine,
// no timer — until release re-enqueues it to be opened normally, and hit.
// Otherwise s proceeds, as a leader itself when it will compute rows and
// offer an entry. Every leader records the bounds trail, so protected and
// unprotected sessions follow each other; a session that did not opt into
// chaos never follows one that did; and a session waits once behind a leader
// that delivers, so there is no chain: parked sessions are never leaders.
func (sch *scheduler) followOrLead(s *Session) bool {
	sch.leadMu.Lock()
	defer sch.leadMu.Unlock()
	depth := sch.prefix.Depth(s.prompt, s.req.Protected)
	var lead *Session
	if !s.waited {
		need := depth + sch.cfg.PrefillChunk // rows of s's prompt a leader must cover
		for _, l := range sch.leaders {
			if l.req.Chaos && !s.req.Chaos {
				continue
			}
			if n := min(prefixcache.MatchLen(l.prompt, s.prompt), len(s.prompt)-1); n >= need {
				lead, need = l, n+1 // the deepest one
			}
		}
	}
	if lead != nil {
		s.waited = true
		lead.followers = append(lead.followers, s)
		sch.mx.coalesced.Add(1)
		return true
	}
	if depth < len(s.prompt)-1 {
		sch.leaders = append(sch.leaders, s)
	}
	return false
}

// release ends s's time as a leader — its prefill finished, or it settled —
// and puts the sessions parked behind it back on the ring (cap MaxSessions ≥
// slots held: never blocks). When s delivered no entry (cancelled, expired,
// panicked, suspect) the followers may wait once more: the first one
// reopened leads and the rest follow it instead of all recomputing.
func (sch *scheduler) release(s *Session, delivered bool) {
	sch.leadMu.Lock()
	if i := slices.Index(sch.leaders, s); i >= 0 {
		sch.leaders = slices.Delete(sch.leaders, i, i+1)
	}
	followers := s.followers
	s.followers = nil
	sch.leadMu.Unlock()
	for _, f := range followers {
		f.waited = delivered
		sch.ready <- f
	}
}

// open is a session's first slice's serial bookkeeping, inside its own panic
// boundary; it leaves the session owning its KV state and — protected or
// recording its entry's trail — its fork state. An adopted session restores
// its snapshot (validated at the serve boundary) and is decode-ready at once,
// using no slice step. A prompt consults the prefix cache and opens the
// chunked prefill, on a hit borrowing the cached KV prefix and opening the
// first-token state at its depth (core.OpenPrefill). No prompt rows are
// computed here: the fused slice loop feeds the chunks, co-batched with
// decode rows.
func (sch *scheduler) open(r *replica, s *Session) (err error) {
	defer recoverAs500(&err, "opening session")
	rows := len(s.prompt) + s.req.MaxTokens
	var ref *prefixcache.Ref
	if s.adoptSnap != nil {
		rows = s.adoptSnap.Rows() + s.req.MaxTokens
	} else if sch.prefix != nil {
		if ref = sch.prefix.Lookup(s.prompt, s.req.Protected); ref != nil {
			s.hitRows = ref.Rows()
		}
	}
	s.kv.obtain(sch, r.m, rows-s.hitRows, ref)
	s.startAt = time.Now()
	sch.mx.queueLat.Observe(msSince(s.admitted, s.startAt))
	if s.adoptSnap != nil {
		s.kv.st.Restore(s.adoptSnap)
		s.lastExport = s.adoptSnap.NextStep()
		s.adoptSnap = nil
		if s.req.Resume {
			sch.mx.sessRestored.Add(1)
		} else {
			sch.mx.sessImported.Add(1)
		}
		return nil
	}
	sch.mx.promptTokens.Add(int64(len(s.prompt)))
	s.kv.st.BeginPrefill(len(s.prompt))
	// Offer the finished prefill back unless the cache already covers this
	// prompt as deeply as a lookup could use it; unprotected, record the
	// entry's trail from row 0 if it can: cold, or on a hit whose entry has one.
	s.insert = sch.prefix != nil && s.hitRows < len(s.prompt)-1
	switch {
	case ref != nil:
		s.kv.st.ResumePrefix(ref.Snapshot())
		if s.req.Protected || s.insert && ref.Trail() != nil {
			s.ftState = core.OpenPrefill(ref.Trail(), s.hitRows, true)
		}
	case s.req.Protected || s.insert:
		s.ftState = core.OpenPrefill(nil, 0, s.insert)
	}
	return nil
}

// finishPrefill ends a session's prefill right after the fused step that
// computed its final prompt chunk emitted the first token: it offers the
// full-prompt snapshot back to the prefix cache, with the trail the
// session's fork state recorded (core.ForkState.Offer), then releases the
// sessions parked behind this prefill — after the Insert, so they hit.
//
// Bit-identity: chunked, cache-seeded, co-batched, and single-pass prefills
// produce identical KV bits and first tokens (model.ForwardBatch /
// PrefillChunk contract), and the FT2 bounds merge identically — min/max
// observation is associative over row partitions and the bounds trail folds
// to exactly the restored rows — so a cache-hit session's output matches a
// cold one and the GenerateInto oracle exactly.
func (sch *scheduler) finishPrefill(s *Session) {
	sch.mx.ttft.Observe(msSince(s.admitted, time.Now()))
	trail, nanFree := s.ftState.Offer(s.req.Protected)
	// A suspect session's rows may have been computed on corrupted weights:
	// it never inserts, and the sessions parked behind it compute their own.
	if s.insert && !s.suspect {
		snap := &model.Snapshot{}
		s.kv.st.Checkpoint(snap)
		sch.prefix.Insert(s.prompt, snap, trail, nanFree)
	}
	sch.release(s, !s.suspect)
}

// fusedSlice is the engine loop and its fault boundary: each iteration
// advances every live session with step budget left — a decoding session by
// one token, a mid-prefill session by one bounded prompt chunk — through
// model.ForwardBatch, whose stacked rows stream every weight matrix once for
// the whole group. A prefill chunk consumes one slice step, so a session
// admitted mid-slice starts decoding in the same group the moment its prompt
// completes. Finished and expired sessions settle mid-loop; survivors are
// re-enqueued to the ready ring. Any panic out of the engine (or a hook)
// becomes a 500-class error for the whole group instead of crashing the
// server.
func (sch *scheduler) fusedSlice(r *replica, g *group) (err error) {
	defer recoverAs500(&err, "in session slice")
	m := r.m

	for {
		// Step boundary: settle sessions whose deadline expired or whose
		// client went away, and assemble this step's fused items under the
		// arena's row budget: every participant with budget left contributes
		// one decode row or one ≤PrefillChunk prompt chunk; a chunk that would
		// overflow the budget shrinks to fit (and a session left with zero
		// rows simply waits for the next iteration — its step budget is
		// untouched).
		g.idx, g.items = g.idx[:0], g.items[:0]
		rowBudget, prefRows, decRows := m.Cfg.MaxSeq, 0, 0
		for i, s := range g.sessions {
			if s == nil {
				continue
			}
			if cerr := s.checkCtx(); cerr != nil {
				sch.finishInGroup(g, i, cerr)
				continue
			}
			if g.rem[i] <= 0 || rowBudget <= 0 {
				continue
			}
			it := model.BatchItem{State: s.kv.st, Hooks: g.hooks[i]}
			if s.kv.st.Started() {
				it.Tok = s.kv.st.LastToken()
				rowBudget--
				decRows++
			} else {
				pos := s.kv.st.PrefillPos()
				n := min(len(s.prompt)-pos, rowBudget)
				if sch.cfg.PrefillChunk > 0 {
					n = min(n, sch.cfg.PrefillChunk)
				}
				it.Prefill = s.prompt[pos : pos+n]
				rowBudget -= n
				prefRows += n
			}
			g.items = append(g.items, it)
			g.idx = append(g.idx, i)
		}
		if len(g.idx) == 0 {
			break
		}
		time.Sleep(sch.cfg.StepDelay) // 0 in service: returns at once

		t0 := time.Now()
		g.toks = m.ForwardBatch(g.items, g.toks[:0])
		// The fused-forward metrics describe calls that stacked rows.
		if rows := prefRows + decRows; rows > 1 {
			sch.mx.fusedForwards.Add(1)
			sch.mx.fusedPrefillRows.Add(int64(prefRows))
			sch.mx.fusedDecodeRows.Add(int64(decRows))
			sch.mx.fusedRows.Observe(float64(rows))
		}
		sch.mx.tokenLat.Observe(msSince(t0, time.Now()))
		sch.mx.batchSize.Observe(float64(len(g.idx)))
		sch.mx.batchSteps.Add(1)
		sch.mx.prefillChunks.Add(int64(len(g.idx) - decRows))
		sch.mx.prefillTokens.Add(int64(prefRows))

		for n, i := range g.idx {
			s, tok := g.sessions[i], g.toks[n]
			g.rem[i]-- // a decode row and a prompt chunk each consume one of this slice's steps
			if tok < 0 {
				continue // mid-prefill: no token yet
			}
			// Delivery, the same for the first token and every later one:
			// emit, count, end the prefill, finish when done, mark when due.
			s.emit(tok)
			sch.mx.tokensTotal.Add(1)
			if len(g.items[n].Prefill) > 0 {
				sch.finishPrefill(s)
			}
			if s.finishedAfter(tok) {
				sch.finishInGroup(g, i, nil)
				continue
			}
			// The mark covering the token just emitted is recorded before the
			// next step can emit another (same goroutine), so a router that
			// has seen token k can always fetch a checkpoint within one stride
			// of k — from the first token on, which a session with no mark
			// yet marks: a router need never replay a whole prefill.
			if total := s.kv.st.Step() + 1; s.kv.exported && (s.lastExport == 0 || total-s.lastExport >= sch.cfg.ExportStride) {
				s.kv.mark(sch, &s.ftState)
				s.lastExport = total
			}
		}
	}

	// Survivors go back on the ring (cap MaxSessions ≥ active sessions:
	// never blocks).
	for _, s := range g.sessions {
		if s == nil {
			continue
		}
		s.kv.account(sch)
		sch.ready <- s
	}
	return nil
}

// finishInGroup settles a session mid-slice and removes it from the group.
// Successful finishes park the session to the spill dir first, before
// settling recycles its state.
func (sch *scheduler) finishInGroup(g *group, i int, err error) {
	s := g.sessions[i]
	g.sessions[i] = nil
	if err == nil {
		sch.maybeSpill(s)
	}
	sch.settle(s, err)
}

// replaceReplica swaps in a fresh replica after a panic or a confirmed
// weight corruption poisoned the current one.
func (sch *scheduler) replaceReplica(r *replica) *replica {
	sch.mx.rebuilds.Add(1)
	return sch.pool.rebuild(r.slot)
}

// settle finishes a session: terminal result, stream close, bookkeeping,
// state recycling, slot release.
func (sch *scheduler) settle(s *Session, err error) {
	if err != nil {
		s.err = err
	}
	s.finalize(sch.cfg.Model)
	s.cancel()
	sch.dropExport(s) // before the client sees the end, so it may reuse the id at once
	close(s.tokens)
	close(s.done)
	sch.release(s, false) // a no-op unless s was a leader that never finished its prefill

	status := 200
	if s.err != nil {
		status = errStatus(s.err)
	}
	sch.mx.incStatus(status)
	sch.mx.reqLat.Observe(msSince(s.admitted, time.Now()))
	if s.req.Protected {
		sch.mx.addCorrections(s.ftState, s.corrBase)
	}
	if s.suspect {
		sch.mx.sdcSuspect.Add(1)
	}
	s.kv.recycle(sch)
	sch.inflight.Done()
	<-sch.slots
}

// beginDrain stops admission: subsequent submits fail with ErrDraining and
// the dispatcher exits once the already-queued sessions are scheduled.
// Idempotent.
func (sch *scheduler) beginDrain() {
	sch.drainOnce.Do(func() {
		sch.mu.Lock()
		sch.draining = true
		close(sch.admit)
		sch.mu.Unlock()
		sch.mx.draining.Store(true)
	})
}

// shutdown drains and stops the workers. In-flight and queued sessions are
// given until ctx expires to finish; past that their contexts are canceled
// and they settle with errors. Always returns with the workers stopped.
func (sch *scheduler) shutdown(ctx context.Context) error {
	sch.beginDrain()
	finished := make(chan struct{})
	go func() {
		<-sch.dispatcherDone
		sch.inflight.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		err = ctx.Err()
		// Force the stragglers out: cancel every live session, then wait —
		// each fails at its next step boundary.
		sch.haltAll()
		<-finished
	}
	sch.closeOnce.Do(func() { close(sch.ready) })
	sch.workers.Wait()
	if sch.prefix != nil {
		sch.prefix.Clear() // no session will hit it again
	}
	return err
}

// queueDepth and activeSessions feed the metrics endpoint.
func (sch *scheduler) queueDepth() int     { return len(sch.admit) }
func (sch *scheduler) activeSessions() int { return len(sch.slots) }
