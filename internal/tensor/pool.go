package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the resident worker pool behind the parallel matmul
// paths. The previous design spawned GOMAXPROCS goroutines per call, which
// put a scheduler round trip and a stack handoff on every large product; the
// pool spawns its helpers once and hands work over with a channel send plus
// atomic chunk claiming.
//
// Execution model: a job covers a grid of `chunks` equal slices of [0, n).
// Chunk indices are claimed through an atomic cursor, so any number of
// helpers — including zero — may participate. The submitting goroutine
// always works the grid itself, which guarantees completion even when every
// helper is busy with other jobs, and a sync.WaitGroup counting one unit per
// chunk tells the submitter when the last claimed chunk finished.
//
// Jobs carry plain operand pointers (no closures) and are recycled through a
// freelist, so the decode hot path can fan out without touching the heap.
//
// Recycling safety: a helper can hold a stale *job after the submitter
// returned (it received the pointer from the channel but lost the race for
// the last chunk). Before a job is recycled its cursor is parked at jobIdle,
// far above any real chunk count, so a stale claim always fails the bounds
// check without reading the operand fields; those fields are only read after
// a claim that observed the new owner's cursor reset, which (all cursor
// operations being sequentially consistent atomics) also publishes them.

// kernel identifies which row/column kernel a pooled job runs.
type kernel uint8

const (
	kernelMatMulTRows kernel = iota
	kernelMatMulTCols
	// kernelFunc runs a caller-supplied range function instead of a matmul
	// kernel — the ParallelFor escape hatch the batched attention fan-out
	// uses. The function travels in the job's fn field.
	kernelFunc
)

// jobIdle parks a job's cursor between uses: any stale chunk claim lands
// above every plausible chunk count and exits without touching the operands.
const jobIdle = int64(1) << 40

type job struct {
	kind      kernel
	out, a, b *Tensor
	// fn is the range body of a kernelFunc job. Callers keep the closure
	// alive across calls (the model arena does), so assigning it here does
	// not allocate.
	fn func(lo, hi int)

	chunk  atomic.Int64 // elements per chunk
	n      atomic.Int64 // grid size (rows or cols)
	chunks atomic.Int64 // total chunk count = ceil(n/chunk)
	cursor atomic.Int64 // next chunk index to claim
	wg     sync.WaitGroup
}

func (j *job) exec(lo, hi int) {
	switch j.kind {
	case kernelMatMulTRows:
		matMulTRows(j.out, j.a, j.b, lo, hi)
	case kernelMatMulTCols:
		matMulTCols(j.out, j.a, j.b, lo, hi)
	case kernelFunc:
		j.fn(lo, hi)
	}
}

// run claims and executes chunks until the grid is exhausted.
func (j *job) run() {
	for {
		idx := j.cursor.Add(1) - 1
		if idx >= j.chunks.Load() {
			return
		}
		chunk, n := j.chunk.Load(), j.n.Load()
		lo := idx * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		j.exec(int(lo), int(hi))
		j.wg.Done()
	}
}

var (
	poolMu      sync.Mutex
	poolWork    chan *job
	poolFree    chan *job
	poolHelpers atomic.Int32
)

// ensurePool keeps the resident helper set in step with GOMAXPROCS instead
// of sizing once at first use: helpers = procs-1 (floor 1, so single-proc
// processes that later raise GOMAXPROCS still have a helper to hand off
// to), grown on demand whenever GOMAXPROCS rises between phases — bench
// sweeps, servers re-tuned at runtime. Helpers are never killed when
// GOMAXPROCS drops: callers cap per-job recruitment by the current plan, so
// surplus helpers just stay parked on the channel. The fast path is one
// atomic load; its acquire ordering also publishes the channels created
// under the mutex.
func ensurePool(procs int) {
	want := int32(procs - 1)
	if want < 1 {
		want = 1
	}
	if poolHelpers.Load() >= want {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolWork == nil {
		poolWork = make(chan *job, 256)
		poolFree = make(chan *job, 64)
	}
	for poolHelpers.Load() < want {
		go func() {
			for j := range poolWork {
				j.run()
			}
		}()
		poolHelpers.Add(1)
	}
}

// poolHelperCount reports the resident helper count (tests only).
func poolHelperCount() int { return int(poolHelpers.Load()) }

// runPooled executes a kernel over grid [0,n) split into chunk-sized slices,
// recruiting up to maxHelpers resident helpers. Steady-state it performs no
// heap allocation: jobs cycle through the freelist and the kernel arguments
// travel as struct fields, not closures.
func runPooled(kind kernel, out, a, b *Tensor, n, chunk, maxHelpers int) {
	j := acquireJob()
	j.kind, j.out, j.a, j.b = kind, out, a, b
	submitJob(j, n, chunk, maxHelpers)
}

// ParallelFor executes fn over [0,n) in chunk-sized ranges on the resident
// pool, recruiting up to maxHelpers helpers (the submitter always works the
// grid too). fn must be safe to invoke concurrently on disjoint ranges and
// must not touch shared mutable state beyond what it owns per range — the
// batched attention fan-out keys per-range scratch off the range bounds.
// With maxHelpers <= 0 the grid runs inline as fn(0, n), so a single-CPU
// host pays no atomics. Zero-alloc when the caller reuses a long-lived
// closure.
func ParallelFor(n, chunk, maxHelpers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if maxHelpers <= 0 || chunk <= 0 || chunk >= n {
		fn(0, n)
		return
	}
	j := acquireJob()
	j.kind, j.fn = kernelFunc, fn
	submitJob(j, n, chunk, maxHelpers)
}

// acquireJob recycles a parked job or allocates a fresh one.
func acquireJob() *job {
	ensurePool(runtime.GOMAXPROCS(0))
	select {
	case j := <-poolFree:
		return j
	default:
		return &job{}
	}
}

// submitJob publishes a prepared job over grid [0,n), recruits helpers,
// works the grid on the calling goroutine, waits for completion, and parks
// the job for reuse.
func submitJob(j *job, n, chunk, maxHelpers int) {
	chunks := (n + chunk - 1) / chunk
	j.chunk.Store(int64(chunk))
	j.n.Store(int64(n))
	j.chunks.Store(int64(chunks))
	j.wg.Add(chunks)
	// Publish: helpers only read the fields above after a claim that
	// observed this reset.
	j.cursor.Store(0)

	helpers := chunks - 1
	if helpers > maxHelpers {
		helpers = maxHelpers
	}
	for i := 0; i < helpers; i++ {
		select {
		case poolWork <- j:
		default:
			// Queue full: the submitter and already-recruited helpers
			// finish the grid on their own.
			i = helpers
		}
	}
	j.run()
	j.wg.Wait()

	// Park the cursor so stale claims from helpers that still hold the
	// pointer fail the bounds check, then recycle.
	j.cursor.Store(jobIdle)
	j.out, j.a, j.b, j.fn = nil, nil, nil, nil
	select {
	case poolFree <- j:
	default:
	}
}
