package serve

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"runtime/debug"
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
// admitted mid-flight. Sessions own their KV state (model.DecodeState), so
// moving between replicas costs a pointer swap, not a snapshot copy.
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

	sessions   map[*Session]struct{} // admitted, not yet finished
	sessionsMu sync.Mutex

	// Migration checkpoints: latest wire-format blob per session id, written
	// by the owning worker at the export stride and served by
	// /v1/sessions/export. Entries die with their session's settle — a live
	// checkpoint is only useful while the generation is in flight.
	exportMu sync.Mutex
	exports  map[string]exportEntry

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
		sessions:       make(map[*Session]struct{}),
		exports:        make(map[string]exportEntry),
		dispatcherDone: make(chan struct{}),
	}
	if cfg.PrefixCacheMB > 0 {
		sch.prefix = prefixcache.New(int64(cfg.PrefixCacheMB) << 20)
	}
	go sch.dispatch()
	for i := range pool.replicas {
		sch.workers.Add(1)
		go sch.worker(i)
	}
	return sch
}

// submit validates nothing (the Server did); it only admits. The returned
// session is already circulating. Fails fast with ErrQueueFull or
// ErrDraining.
func (sch *scheduler) submit(ctx context.Context, req Request, prompt []int) (*Session, error) {
	return sch.admitSession(ctx, req, prompt, nil, nil, adoptNone)
}

// submitAdopted admits a session that restores a decoded snapshot (plus the
// protected fork state, when present) instead of prefilling a prompt — the
// entry for live-migration imports and spill-dir resumes. req.MaxTokens is
// the number of tokens still to generate from the snapshot's resume point.
func (sch *scheduler) submitAdopted(ctx context.Context, req Request, snap *model.Snapshot, fk *core.ForkState, kind adoptKind) (*Session, error) {
	return sch.admitSession(ctx, req, nil, snap, fk, kind)
}

func (sch *scheduler) admitSession(ctx context.Context, req Request, prompt []int, snap *model.Snapshot, fk *core.ForkState, kind adoptKind) (*Session, error) {
	deadline := sch.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	sctx, cancel := context.WithTimeout(ctx, deadline)
	s := &Session{
		req:       req,
		prompt:    prompt,
		ctx:       sctx,
		cancel:    cancel,
		out:       make([]int, 0, req.MaxTokens),
		tokens:    make(chan int, req.MaxTokens),
		done:      make(chan struct{}),
		admitted:  time.Now(),
		id:        sch.nextID.Add(1),
		adoptSnap: snap,
		adoptFT:   fk,
		adoptKind: kind,
	}

	sch.mu.RLock()
	if sch.draining {
		sch.mu.RUnlock()
		cancel()
		return nil, ErrDraining
	}
	sch.inflight.Add(1)
	select {
	case sch.admit <- s:
		sch.mu.RUnlock()
	default:
		sch.mu.RUnlock()
		sch.inflight.Done()
		cancel()
		return nil, ErrQueueFull
	}

	sch.sessionsMu.Lock()
	sch.sessions[s] = struct{}{}
	sch.sessionsMu.Unlock()
	return s, nil
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
	ctls     []*core.FT2
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
	}
}

// runSlice advances one group of sessions by one scheduling slice: gather up
// to BatchMax ready sessions, open prefills for the unstarted ones (KV state,
// prefix-cache lookup — no prompt rows yet), then drive the whole group —
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

	g.sessions, g.rem, g.ctls = g.sessions[:0], g.rem[:0], g.ctls[:0]
	for _, s := range g.pending {
		if err := s.checkCtx(); err != nil {
			sch.settle(s, err)
			continue
		}
		if !s.started && s.adoptSnap != nil {
			// Adopted session (migration import / spill resume): restore the
			// snapshot instead of prefilling. Restore is a handful of copies,
			// so it does not consume a slice step.
			if err := sch.adoptGuarded(r, s); err != nil {
				sch.settle(s, err)
				if errStatus(err) == 500 {
					r = sch.replaceReplica(r)
				}
				continue
			}
		} else if !s.started && !s.prefillStarted {
			// First slice: open the prefill (state, cache lookup, admission
			// metrics). The prompt rows themselves are fed by the fused
			// slice loop below, co-batched with the decoding sessions.
			if sch.prefix != nil && sch.followOrLead(s) {
				continue // parked: its leader's release puts it back on the ring
			}
			if err := sch.openPrefill(r, s); err != nil {
				sch.settle(s, err)
				if errStatus(err) == 500 {
					r = sch.replaceReplica(r)
				}
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
	if len(g.sessions) == 0 {
		return sch.postSlice(r)
	}

	if sch.chaos != nil {
		sch.applyChaos(r, g)
	}

	// Reinstate each protected session's counters and first-token bounds on
	// its slot's controller; the decode hooks only read the shared bounds
	// store, so many sessions of one bounds lineage can decode in one batch.
	// A cold protected prefill (no bounds yet) gets a fresh store instead:
	// its hooks observe into it and the end of the slice captures it onto the
	// session.
	for i, s := range g.sessions {
		var f *core.FT2
		if s.req.Protected {
			f = r.controller(i)
			if s.ftState.Bounds != nil {
				f.ResumeFork(s.ftState)
			} else {
				f.Reset()
			}
			g.hooks[i] = append(g.hooks[i], r.hookFns[i])
		}
		g.ctls = append(g.ctls, f)
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
		if !s.started {
			// Mid-prefill sessions are never activation/KV victims — the
			// first token defines the FT2 bounds and the oracle baseline, so
			// session-scoped faults only target decoding sessions. They still
			// count toward the weight-fault opt-in gate above.
			continue
		}
		_, _, rows := s.state.KVSlabs(0)
		g.views = append(g.views, chaos.SessionView{
			ID: s.id, Step: s.state.Step(), Budget: g.rem[i], Rows: rows,
		})
		g.victims = append(g.victims, i)
	}
	plan := sch.chaos.PlanSlice(g.views, allChaos)
	if plan.Empty() {
		return
	}
	dtype := sch.chaos.Config().DType

	for _, f := range plan.Activation {
		i := g.victims[f.Session]
		s := g.sessions[i]
		g.hooks[i] = append(g.hooks[i], fault.NewInjector(f.Site, dtype).Hook())
		s.suspect = true
		sch.chaos.Record(chaos.Event{Kind: chaos.EvInject, Target: fault.TargetActivation.String(),
			Site: f.Site.String(), Session: s.id, Replica: r.slot, Step: f.Site.Step})
	}

	for _, f := range plan.KV {
		i := g.victims[f.Session]
		s := g.sessions[i]
		inj := fault.NewInjector(f.Site, dtype)
		inj.M = r.m
		prev := r.m.SwapState(s.state)
		inj.Fire()
		r.m.SwapState(prev)
		s.suspect = true
		sch.chaos.Record(chaos.Event{Kind: chaos.EvInject, Target: fault.TargetKVCache.String(),
			Site: f.Site.String(), Session: s.id, Replica: r.slot, Step: f.Site.Step})
	}

	for _, site := range plan.Weight {
		inj := fault.NewInjector(site, dtype)
		inj.M = r.m
		inj.Fire()
		r.tainted = true
		// Weights are replica-global: every opted-in session in the group —
		// including one whose prefill rows are computed after the flip — may
		// silently diverge.
		for _, s := range g.sessions {
			if s.req.Chaos {
				s.suspect = true
			}
		}
		sch.chaos.Record(chaos.Event{Kind: chaos.EvInject, Target: fault.TargetWeight.String(),
			Site: site.String(), Replica: r.slot, Step: site.Step})
	}
}

// postSlice is the detection-and-recovery boundary run after every slice on
// the owning worker: the controllers' exact-repair counters drain into the
// server metrics, and a replica under persistent-corruption suspicion — chaos
// marked it tainted, or the ABFT tier recomputed a mismatch that would not
// repair (the signature of corrupted weights rather than a transient flip)
// — is scrubbed against its build-time weight checksum and rebuilt from
// seed when the scrub confirms. Sessions own their KV and fork state, so
// they survive the rebuild untouched.
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
	if !suspicion {
		return r
	}
	if r.scrub() {
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
// offer an entry. A protected session needs the trail, so it follows only a
// protected leader; a session that did not opt into chaos never follows one
// that did; and a session waits once behind a leader that delivers, so there
// is no chain: parked sessions are never leaders.
func (sch *scheduler) followOrLead(s *Session) bool {
	sch.leadMu.Lock()
	defer sch.leadMu.Unlock()
	depth := sch.prefix.Depth(s.prompt, s.req.Protected)
	var lead *Session
	if !s.waited {
		need := depth + sch.cfg.PrefillChunk // rows of s's prompt a leader must cover
		for _, l := range sch.leaders {
			if s.req.Protected && !l.req.Protected || l.req.Chaos && !s.req.Chaos {
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

// openPrefill runs a session's serial admission bookkeeping on its first
// slice, once followOrLead let it through, inside its own panic boundary:
// obtain a KV state, open the chunked prefill, consult the prefix cache, and
// — on a hit — fork the cached KV prefix (and, for protected sessions, the
// first-token bounds as of its last row) so only the unique suffix is
// computed. No prompt rows are computed here: the fused slice loop feeds the
// chunks, co-batched with decode rows.
func (sch *scheduler) openPrefill(r *replica, s *Session) (err error) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: panic opening prefill: %v\n%s", p, debug.Stack())
			err = &apiError{Status: 500,
				Msg: fmt.Sprintf("serve: internal error: %v", p)}
		}
	}()
	m := r.m
	if s.state == nil {
		s.state = sch.obtainState(r)
	}
	prev := m.SwapState(s.state)
	defer m.SwapState(prev)
	s.prefillStarted = true
	s.startAt = time.Now()
	sch.mx.queueLat.observe(msSince(s.admitted, s.startAt))
	sch.mx.promptTokens.Add(int64(len(s.prompt)))
	m.BeginPrefill(len(s.prompt))
	if sch.prefix != nil {
		if ref := sch.prefix.Lookup(s.prompt, s.req.Protected); ref != nil {
			m.ResumePrefillPrefix(ref.Snapshot())
			s.hitRows = ref.Rows()
			if s.req.Protected {
				// Seed the fork state with the first-token profile of exactly
				// the hitRows cached rows, and carry their trail records
				// forward: the session extends both as it observes the suffix,
				// so the entry it inserts has a complete trail from row 0.
				s.ftState.Trail = ref.Trail().Prefix(s.hitRows)
				s.ftState.Bounds, s.ftState.FirstTokenNaN = s.ftState.Trail.At(s.hitRows)
			}
			ref.Release()
		}
		// Offer the finished prefill back unless the cache already covers
		// this prompt as deeply as a lookup could use it.
		s.insert = s.hitRows < len(s.prompt)-1
	}
	return nil
}

// finishPrefill completes a session's prefill bookkeeping right after the
// fused step that computed its final prompt chunk returned the first token:
// emit, freeze the first-token bounds, seed the migration checkpoint, and
// offer the full-prompt snapshot back to the prefix cache, then release the
// sessions parked behind this prefill — after the Insert, so they hit.
//
// Bit-identity: chunked, cache-seeded, co-batched, and single-pass prefills
// produce identical KV bits and first tokens (model.ForwardBatch /
// PrefillChunk contract), and the FT2 bounds merge identically — min/max
// observation is associative over row partitions and the bounds trail folds
// to exactly the restored rows — so a cache-hit session's output matches a
// cold one and the GenerateInto oracle exactly.
func (sch *scheduler) finishPrefill(r *replica, g *group, i, tok int) {
	s := g.sessions[i]
	m := r.m
	s.started = true
	s.lastTok = tok
	s.emit(tok)
	sch.mx.tokensTotal.Add(1)
	if f := g.ctls[i]; f != nil {
		// The first-token bounds are complete once the final chunk ran;
		// clone them out of the controller so other sessions' Resets cannot
		// clear them.
		s.ftState = f.CaptureForkState()
	}
	if sch.exporting(s) && !s.finishedAfter(tok) {
		// Seed the migration checkpoint right after the first token, so a
		// router that loses this worker early in the generation can already
		// migrate instead of replaying the whole prefill.
		sch.captureExport(r, s)
		s.lastExport = 1
	}
	// A suspect session's rows may have been computed on corrupted weights:
	// it never inserts, and the sessions parked behind it compute their own.
	if sch.prefix != nil && s.insert && !s.suspect {
		snap := &model.Snapshot{}
		prev := m.SwapState(s.state)
		m.Checkpoint(snap)
		m.SwapState(prev)
		// A NaN-corrected first token wrote corrected values into the KV; a
		// bare model would not reproduce them, so such entries serve only
		// protected sessions. The trail is nil for an unprotected session.
		sch.prefix.Insert(s.prompt, snap, s.ftState.Trail, s.ftState.FirstTokenNaN == 0)
	}
	sch.release(s, !s.suspect)
	s.ftState.Trail = nil // the cache's now, or of no further use: decode never extends it
	if s.finishedAfter(tok) {
		sch.finishInGroup(r, g, i, nil)
	}
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
	defer func() {
		if p := recover(); p != nil {
			log.Printf("serve: panic in session slice: %v\n%s", p, debug.Stack())
			err = &apiError{Status: 500,
				Msg: fmt.Sprintf("serve: internal error: %v", p)}
		}
	}()
	m := r.m

	for {
		// Step boundary: settle sessions whose deadline expired or whose
		// client went away.
		for i, s := range g.sessions {
			if s == nil {
				continue
			}
			if cerr := s.checkCtx(); cerr != nil {
				sch.finishInGroup(r, g, i, cerr)
			}
		}

		// Assemble this step's fused items under the arena's row budget:
		// every participant with budget left contributes one decode row or
		// one ≤PrefillChunk prompt chunk; a chunk that would overflow the
		// budget shrinks to fit (and a session left with zero rows simply
		// waits for the next iteration — its step budget is untouched).
		g.idx = g.idx[:0]
		g.items = g.items[:0]
		rowBudget := m.Cfg.MaxSeq
		prefRows, decRows := 0, 0
		for i, s := range g.sessions {
			if s == nil || g.rem[i] <= 0 || rowBudget <= 0 {
				continue
			}
			if s.started {
				g.items = append(g.items, model.BatchItem{State: s.state, Tok: s.lastTok, Hooks: g.hooks[i]})
				g.idx = append(g.idx, i)
				rowBudget--
				decRows++
				continue
			}
			pos := s.state.PrefillPos()
			n := len(s.prompt) - pos
			if sch.cfg.PrefillChunk > 0 && n > sch.cfg.PrefillChunk {
				n = sch.cfg.PrefillChunk
			}
			if n > rowBudget {
				n = rowBudget
			}
			g.items = append(g.items, model.BatchItem{State: s.state, Prefill: s.prompt[pos : pos+n], Hooks: g.hooks[i]})
			g.idx = append(g.idx, i)
			rowBudget -= n
			prefRows += n
		}
		if len(g.idx) == 0 {
			break
		}
		if sch.cfg.StepDelay > 0 {
			time.Sleep(sch.cfg.StepDelay)
		}

		t0 := time.Now()
		g.toks = m.ForwardBatch(g.items, g.toks[:0])
		// The fused-forward metrics describe calls that stacked rows.
		if rows := prefRows + decRows; rows > 1 {
			sch.mx.fusedForwards.Add(1)
			sch.mx.fusedPrefillRows.Add(int64(prefRows))
			sch.mx.fusedDecodeRows.Add(int64(decRows))
			sch.mx.fusedRows.observe(float64(rows))
		}
		sch.mx.tokenLat.observe(msSince(t0, time.Now()))
		sch.mx.batchSize.observe(float64(len(g.idx)))
		sch.mx.batchSteps.Add(1)

		for n, i := range g.idx {
			s := g.sessions[i]
			if chunk := len(g.items[n].Prefill); chunk > 0 {
				sch.mx.prefillChunks.Add(1)
				sch.mx.prefillTokens.Add(int64(chunk))
				g.rem[i]-- // the chunk consumed one of this slice's steps
				if tok := g.toks[n]; tok >= 0 {
					sch.finishPrefill(r, g, i, tok)
					continue
				}
				continue
			}
			s.lastTok = g.toks[n]
			s.emit(s.lastTok)
			sch.mx.tokensTotal.Add(1)
			g.rem[i]--
			if s.finishedAfter(s.lastTok) {
				sch.finishInGroup(r, g, i, nil)
				continue
			}
			if sch.exporting(s) {
				// The checkpoint covering the token just emitted is captured
				// before the next step can emit another (same goroutine), so
				// a router that has seen token k can always fetch a
				// checkpoint within one stride of k.
				if total := s.state.Step() + 1; total-s.lastExport >= sch.cfg.ExportStride {
					if g.ctls[i] != nil {
						s.syncFT2(g.ctls[i])
					}
					sch.captureExport(r, s)
					s.lastExport = total
				}
			}
		}
	}

	// Survivors: capture their correction counters — or, mid-prefill, the
	// first-token bounds and trail observed so far, which the next slice
	// resumes onto whichever controller it gets — and put them back on the
	// ring (cap MaxSessions ≥ active sessions: never blocks).
	for i, s := range g.sessions {
		if s == nil {
			continue
		}
		if f := g.ctls[i]; f != nil {
			if s.started {
				s.syncFT2(f)
			} else {
				s.ftState = f.CaptureForkState()
			}
		}
		sch.ready <- s
	}
	return nil
}

// finishInGroup settles a session mid-slice and removes it from the group.
// Successful finishes park the session to the spill dir first (while the
// worker still holds the replica its state can be checkpointed on).
func (sch *scheduler) finishInGroup(r *replica, g *group, i int, err error) {
	s := g.sessions[i]
	if g.ctls[i] != nil {
		s.syncFT2(g.ctls[i])
	}
	g.sessions[i] = nil
	if err == nil {
		sch.maybeSpill(r, s)
	}
	sch.settle(s, err)
}

// obtainState recycles a finished session's KV state or allocates a fresh
// one. States are architecture-identical across replicas, so any worker may
// reuse any state.
func (sch *scheduler) obtainState(r *replica) *model.DecodeState {
	select {
	case st := <-sch.states:
		return st
	default:
		return r.m.NewDecodeState()
	}
}

// replaceReplica swaps in a freshly built replica after a panic or a
// confirmed weight corruption poisoned the current one; if the rebuild
// fails the old one is kept.
func (sch *scheduler) replaceReplica(r *replica) *replica {
	if nr, err := sch.pool.rebuild(r.slot); err == nil {
		sch.mx.rebuilds.Add(1)
		return nr
	}
	r.tainted = false
	return r
}

// settle finishes a session: terminal result, stream close, bookkeeping,
// slot release, state recycling.
func (sch *scheduler) settle(s *Session, err error) {
	if err != nil {
		s.err = err
	}
	s.finalize(sch.cfg.Model)
	s.cancel()
	close(s.tokens)
	close(s.done)
	sch.release(s, false) // a no-op unless s was a leader that never finished its prefill

	sch.sessionsMu.Lock()
	delete(sch.sessions, s)
	sch.sessionsMu.Unlock()

	if sch.exporting(s) {
		sch.exportMu.Lock()
		delete(sch.exports, s.req.SessionID)
		sch.exportMu.Unlock()
	}

	status := 200
	if s.err != nil {
		status = errStatus(s.err)
	}
	sch.mx.incStatus(status)
	sch.mx.reqLat.observe(msSince(s.admitted, time.Now()))
	if s.req.Protected {
		sch.mx.addCorrections(s.ftState, s.corrBase)
	}
	if s.suspect {
		sch.mx.sdcSuspect.Add(1)
	}
	if st := s.state; st != nil {
		s.state = nil
		select {
		case sch.states <- st:
		default:
		}
	}
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
		sch.sessionsMu.Lock()
		for s := range sch.sessions {
			s.cancel()
		}
		sch.sessionsMu.Unlock()
		<-finished
	}
	sch.closeOnce.Do(func() { close(sch.ready) })
	sch.workers.Wait()
	return err
}

// queueDepth and activeSessions feed the metrics endpoint.
func (sch *scheduler) queueDepth() int     { return len(sch.admit) }
func (sch *scheduler) activeSessions() int { return len(sch.slots) }
