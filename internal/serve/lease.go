package serve

import (
	"sync"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/prefixcache"
	"ft2/internal/wire"
)

// kvLease is a session's KV state (a model.DecodeState) with every edge of
// its life as one method, so "a fetch never reads a recycled slab", "the KV
// gauges return to zero" and "a mark's rows never change" hold in this file
// alone. Only the worker driving the session calls any but encode.
//
// A checkpoint is a mark until someone asks for it. At each export stride
// the owning worker records a mark — a model.View of the session's KV slabs
// plus its resume point and, when protected, its correction counters and
// read-only bounds — and encodes nothing. GET /v1/sessions/export encodes
// the latest mark on the handler's goroutine. A decode step only appends KV
// rows, so the rows a mark covers do not change while the session decodes
// on; the two things that do rewrite them — recycle handing the state to
// the next session, and a chaos KV fault — first take the pin exclusively.
//
// Capture ordering guarantee (what makes router-driven migration lossless):
// the worker goroutine that emitted token k records any due mark before the
// next decode step can emit k+1, so once a router has received token k+1
// over the stream, GET /v1/sessions/export returns a checkpoint covering
// ≥ k+1−ExportStride tokens. The router therefore never has to replay more
// than one stride plus the tokens it already relayed.
type kvLease struct {
	st          *model.DecodeState // nil before obtain and after recycle
	pitch, rows int                // st's own pitch and rows as last added to the gauges
	ref         *prefixcache.Ref   // the cache hit st borrows its first rows from, if any

	// Fixed at admission: protected marks carry the fork state; exported
	// leases are registered by session id (claimExport) and marked.
	protected, exported bool

	// pin is held shared by an encoder while it reads the mark's KV rows,
	// and exclusively by the owner before those rows are rewritten or the
	// state is handed on; uncontended for a lease that never exports.
	pin sync.RWMutex

	mu   sync.Mutex     // guards the fields below; never held while encoding
	snap model.Snapshot // View of st at the mark; NextStep 0 = none
	fork core.ForkState // counters and bounds at the mark (protected only, no trail)
	seq  uint64         // marks recorded so far
	blob []byte         // the encoding of mark seq, nil until fetched
}

// obtain gives the lease a KV state reserved to the rows its generation
// writes (its horizon less the rows of ref, the cache hit it will borrow,
// which the lease holds until recycle): a finished session's recycled state
// when the pool has one, else a fresh one. States are architecture-identical
// across replicas, so any worker may reuse any, and a recycled state whose
// pitch covers rows allocates nothing.
func (l *kvLease) obtain(sch *scheduler, m *model.Model, rows int, ref *prefixcache.Ref) {
	l.ref = ref
	select {
	case l.st = <-sch.states:
		_, l.pitch = l.st.KVOwn() // the pool's reserved bytes move with it
	default:
		l.st = m.NewDecodeState()
	}
	l.st.Reserve(rows - sch.horizonShort)
	l.account(sch)
}

// account brings the KV gauges up to date with the state's own slabs: their
// pitch (grown since last accounted by a reservation, a row past it or a
// copy-on-write) against reserved, their rows against filled. Borrowed rows
// are the prefix cache's bytes, not the state's.
func (l *kvLease) account(sch *scheduler) {
	rows, pitch := l.st.KVOwn()
	sch.mx.kvReserved.Add(int64(pitch-l.pitch) * sch.kvRowBytes)
	sch.mx.kvFilled.Add(int64(rows-l.rows) * sch.kvRowBytes)
	l.pitch, l.rows = pitch, rows
}

// mark records the state as it stands (KV rows and resume point, plus ft
// when protected) as the latest mark, between steps. It allocates nothing
// once the lease's first mark took its slab references.
func (l *kvLease) mark(sch *scheduler, m *model.Model, ft *core.ForkState) {
	l.mu.Lock()
	m.View(l.st, &l.snap)
	if l.protected {
		l.fork = *ft
		l.fork.Trail = nil
	}
	l.seq++
	l.blob = nil
	l.mu.Unlock()
	sch.mx.ckptExports.Add(1)
}

// encode returns the blob of the latest mark and the tokens it covers (0
// when there is no mark), encoding the mark on first use with the pin held
// shared; the blob then serves every fetch until the next mark.
func (l *kvLease) encode(sch *scheduler) ([]byte, int, error) {
	l.pin.RLock()
	defer l.pin.RUnlock()
	l.mu.Lock()
	snap, fork, seq, blob := l.snap, l.fork, l.seq, l.blob
	l.mu.Unlock()
	tokens := snap.NextStep()
	if tokens == 0 || blob != nil {
		return blob, tokens, nil
	}
	var fk *core.ForkState
	if l.protected {
		fk = &fork
	}
	blob, err := wire.EncodeSession(&snap, fk)
	if err != nil {
		return nil, 0, err
	}
	sch.mx.ckptEncodes.Add(1)
	l.mu.Lock()
	if l.seq == seq {
		l.blob = blob
	}
	l.mu.Unlock()
	return blob, tokens, nil
}

// rewrite runs f — which may change KV rows the latest mark covers — with
// the state installed on m. It encodes an unfetched mark first, so every
// later fetch returns that blob, which predates f, and reads no row; then it
// takes the pin exclusively, waiting out the fetches still reading.
func (l *kvLease) rewrite(sch *scheduler, m *model.Model, f func()) {
	l.encode(sch) // fails only on a mark of no rows, which reads none
	l.pin.Lock()
	defer l.pin.Unlock()
	prev := m.SwapState(l.st)
	f()
	m.SwapState(prev)
}

// spill encodes the finished state, with ft when protected, for durable
// parking — a View of its own, not a mark: a fetch must never return a
// finished session, which a router would resume past its end.
func (l *kvLease) spill(m *model.Model, ft *core.ForkState) ([]byte, error) {
	var view model.Snapshot
	m.View(l.st, &view)
	if !l.protected {
		ft = nil
	}
	return wire.EncodeSession(&view, ft)
}

// recycle ends the lease as its session settles: it waits out the encoders
// still reading rows and drops the mark, then takes the state's rows off the
// filled gauge, resets it — which ends its borrow, so the lease releases the
// cache hit — and hands it to the pool, its slabs still reserved; or, the
// pool full, drops it and its reserved bytes.
func (l *kvLease) recycle(sch *scheduler) {
	l.pin.Lock()
	l.mu.Lock()
	l.snap, l.fork, l.blob = model.Snapshot{}, core.ForkState{}, nil
	l.mu.Unlock()
	l.pin.Unlock()
	if l.st == nil {
		return
	}
	l.account(sch)
	sch.mx.kvFilled.Add(-int64(l.rows) * sch.kvRowBytes)
	l.st.Reset()
	if l.ref != nil {
		l.ref.Release()
	}
	select {
	case sch.states <- l.st:
	default:
		sch.mx.kvReserved.Add(-int64(l.pitch) * sch.kvRowBytes)
	}
	l.st, l.pitch, l.rows, l.ref = nil, 0, 0, nil
}
