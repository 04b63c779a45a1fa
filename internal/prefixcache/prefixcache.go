// Package prefixcache implements a token-keyed radix-tree cache of prompt-
// prefix KV snapshots for the serving layer. Production chat traffic shares
// long system prompts; a session that finds its prompt's longest cached
// token prefix forks the prefix KV via Snapshot.Prefix +
// Model.ResumePrefillPrefix and prefills only the unique suffix.
//
// Structure: a compressed radix tree over token sequences. Each inserted
// prompt contributes one immutable entry — the rows-prefix Snapshot captured
// when its prefill completed, plus (for FT2-protected sessions) the bounds
// trail of that prefill, which yields the first-token bounds at any row
// depth. Every tree node points, per kind of session, at one live entry of
// its subtree that can serve that kind, so two prompts sharing only part of
// a cached prompt still hit the shared part: lookup walks the tree as far as
// the query matches and takes the deepest node with such an entry, truncated
// to the matched depth via a zero-copy Snapshot.Prefix view.
//
// Memory is bounded by a byte budget over snapshot KV payloads with LRU
// eviction. Entries are refcounted while sessions hold them, but eviction
// never blocks on holders and holders never dangle: snapshots are immutable
// and garbage-collected, so evicting an in-use entry merely detaches it from
// the tree — the holding session keeps its view alive through the Ref (the
// "copy-on-evict" guarantee comes for free from immutability; no bytes are
// ever copied or freed under a reader).
//
// All methods are safe for concurrent use.
package prefixcache

import (
	"container/list"
	"sync"

	"ft2/internal/model"
	"ft2/internal/protect"
)

// The two kinds of session an entry can serve. A bare (unprotected) session
// needs KV a bare model would reproduce — a NaN-corrected protected prefill's
// KV embeds the corrections — and a protected session needs the trail to
// rebuild its first-token bounds at the hit depth.
const (
	kindBare = iota
	kindProtected
	numKinds
)

// node is one compressed radix-tree node: the edge holds the token run from
// the parent.
type node struct {
	parent   *node
	label    int // edge[0], the key in parent.children
	edge     []int
	children map[int]*node
	own      *entry // the cached prompt ending exactly here, if any
	// entry[k] is a live entry of this subtree that serves kind k — nil only
	// when the subtree has none, which is what makes a lookup's deepest
	// matching node its deepest possible hit.
	entry [numKinds]*entry
}

// entry is one cached prompt: its full-prompt KV snapshot plus bookkeeping.
// snap and trail are immutable once inserted.
type entry struct {
	snap    *model.Snapshot
	trail   *protect.Trail // nil for unprotected inserts
	nanFree bool           // prefill saw no NaN corrections
	leaf    *node          // the node at the prompt's full depth
	bytes   int64
	refs    int
	elem    *list.Element
}

func (e *entry) serves(kind int) bool {
	if kind == kindProtected {
		return e.trail != nil
	}
	return e.nanFree
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits, Misses, Insertions, Evictions int64
	HitRows                             int64 // total KV rows served from cache
	Entries                             int
	Bytes, Budget                       int64
}

// Cache is the radix prefix cache. The zero value is unusable; call New.
type Cache struct {
	mu     sync.Mutex
	root   *node
	lru    *list.List // front = most recently used; values are *entry
	bytes  int64
	budget int64

	hits, misses, insertions, evictions, hitRows int64
}

// New returns a cache bounded to budgetBytes of snapshot KV payload.
func New(budgetBytes int64) *Cache {
	return &Cache{
		root:   &node{children: map[int]*node{}},
		lru:    list.New(),
		budget: budgetBytes,
	}
}

// Ref is a session's hold on a cache hit: a prefix view of the entry's
// snapshot truncated to Rows tokens, plus the entry's bounds trail for
// protected sessions. Release it once the prefix has been copied into the
// session's KV slabs.
type Ref struct {
	c    *Cache
	e    *entry
	rows int
}

// Rows returns the number of cached prompt rows the hit covers.
func (r *Ref) Rows() int { return r.rows }

// Snapshot returns the zero-copy prefix view to feed ResumePrefillPrefix.
func (r *Ref) Snapshot() *model.Snapshot { return r.e.snap.Prefix(r.rows) }

// Trail returns the cached prefill's bounds trail (read-only; nil when the
// entry came from an unprotected session): Trail().At(Rows()) is the
// first-token profile of exactly the rows the hit covers.
func (r *Ref) Trail() *protect.Trail { return r.e.trail }

// Release drops the hold. The Ref must not be used afterwards.
func (r *Ref) Release() {
	r.c.mu.Lock()
	r.e.refs--
	r.c.mu.Unlock()
}

// MatchLen returns the length of the common prefix of a and b.
func MatchLen(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// deepestLocked walks the tree as far as prompt matches and returns the entry
// a session of this kind would be served from and at how many rows: the
// longest token prefix prompt shares with any cached prompt that serves the
// kind, capped at len(prompt)-1 rows (the readout needs the final row's
// residual stream, which snapshots don't carry). (nil, 0) is a miss.
func (c *Cache) deepestLocked(prompt []int, protected bool) (best *entry, rows int) {
	kind := kindBare
	if protected {
		kind = kindProtected
	}
	cur := c.root
	for rows < len(prompt) { // past the cap too: deeper entries still serve capped hits
		child := cur.children[prompt[rows]]
		if child == nil || child.entry[kind] == nil {
			break
		}
		// Everything in child's subtree shares the matched part of its edge,
		// whether the prompt runs on, diverges or ends there.
		k := MatchLen(child.edge, prompt[rows:])
		best, rows = child.entry[kind], rows+k
		if k < len(child.edge) {
			break
		}
		cur = child
	}
	return best, max(min(rows, len(prompt)-1), 0)
}

// Depth returns the rows a Lookup of prompt would hit right now (0 on a
// miss) and leaves no trace: no counter, no hold, no LRU move.
func (c *Cache) Depth(prompt []int, protected bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, rows := c.deepestLocked(prompt, protected)
	return rows
}

// Lookup finds the deepest usable cached prefix of prompt and returns a Ref
// holding it, or nil on a miss. Protected and unprotected sessions differ
// only in which entries serve them.
func (c *Cache) Lookup(prompt []int, protected bool) *Ref {
	if len(prompt) < 2 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	best, rows := c.deepestLocked(prompt, protected)
	if best == nil {
		c.misses++
		return nil
	}
	best.refs++
	c.lru.MoveToFront(best.elem)
	c.hits++
	c.hitRows += int64(rows)
	return &Ref{c: c, e: best, rows: rows}
}

// Insert adds a completed prefill's prompt and its full-prompt snapshot to
// the cache, reporting whether it was admitted. The cache takes ownership of
// snap and trail — they must never be mutated afterwards. trail is the
// prefill's complete bounds trail from row 0, nil for an unprotected
// session's insert; nanFree says the prefill corrected no NaN. An entry with
// neither serves no one and is refused, as is one whose every lookup a cached
// longer prompt already answers. A duplicate prompt refreshes LRU recency,
// except that one bringing the trail the cached entry lacks replaces it (an
// unprotected insert must not permanently block protected reuse).
func (c *Cache) Insert(prompt []int, snap *model.Snapshot, trail *protect.Trail, nanFree bool) bool {
	if len(prompt) < 2 || snap == nil || snap.Rows() < len(prompt) || trail == nil && !nanFree {
		return false
	}
	bytes := int64(snap.MemoryBytes())
	if bytes > c.budget {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	// Walk/create the path, splitting edges at divergence.
	cur := c.root
	pos := 0
	for pos < len(prompt) {
		child := cur.children[prompt[pos]]
		if child == nil {
			child = &node{
				parent:   cur,
				label:    prompt[pos],
				edge:     append([]int(nil), prompt[pos:]...),
				children: map[int]*node{},
			}
			cur.children[child.label] = child
			cur = child
			break
		}
		k := MatchLen(child.edge, prompt[pos:])
		if k < len(child.edge) {
			oldEdge := child.edge
			mid := &node{
				parent:   cur,
				label:    oldEdge[0],
				edge:     oldEdge[:k:k],
				children: map[int]*node{},
				entry:    child.entry, // same subtree, same entries
			}
			cur.children[mid.label] = mid
			child.edge = oldEdge[k:]
			child.label = child.edge[0]
			child.parent = mid
			mid.children[child.label] = child
			child = mid
		}
		pos += k
		cur = child
	}
	leaf := cur

	e := &entry{snap: snap, trail: trail, nanFree: nanFree, leaf: leaf, bytes: bytes}
	old := leaf.own
	if old != nil && (trail == nil || old.trail != nil) {
		c.lru.MoveToFront(old.elem)
		return false
	}
	if old == nil {
		covered := true
		for kind := range leaf.entry {
			covered = covered && (leaf.entry[kind] != nil || !e.serves(kind))
		}
		if covered {
			return false // a longer cached prompt answers every lookup e could
		}
	}
	leaf.own = e
	if old != nil {
		c.detachLocked(old) // re-points old's nodes at e, the leaf's new own
	}
	for n := leaf; n != c.root; n = n.parent {
		for kind := range n.entry {
			if n.entry[kind] == nil && e.serves(kind) {
				n.entry[kind] = e
			}
		}
	}
	e.elem = c.lru.PushFront(e)
	c.bytes += bytes
	c.insertions++
	c.evictLocked(e)
	return true
}

// evictLocked evicts LRU entries until the budget holds, never touching
// keep. Unreferenced entries go first; if every other entry is held by a
// session the LRU-most held one is detached anyway — safe, because holders
// reach the buffers through their Ref, not the tree.
func (c *Cache) evictLocked(keep *entry) {
	for c.bytes > c.budget {
		var victim *entry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if e == keep {
				continue
			}
			if victim == nil {
				victim = e // LRU-most other entry, fallback if all are held
			}
			if e.refs == 0 {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.detachLocked(victim)
		c.evictions++
	}
}

// detachLocked takes e out of the LRU list, the byte account and the tree.
// Every node that pointed at e is on the path from its leaf to the root;
// bottom-up, each is re-pointed at another live entry of its subtree that
// serves the same kind — the prompt ending at the node itself, or what a
// child already points at (lowest label, so the choice is deterministic) —
// and a node left with no entry and no children is pruned. e's buffers stay
// valid for any session still holding a Ref.
func (c *Cache) detachLocked(e *entry) {
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
	if e.leaf.own == e {
		e.leaf.own = nil
	}
	for n := e.leaf; n != c.root; n = n.parent {
		for kind := range n.entry {
			if n.entry[kind] != e {
				continue
			}
			n.entry[kind] = nil
			if n.own != nil && n.own.serves(kind) {
				n.entry[kind] = n.own
				continue
			}
			lowest := -1
			for label, ch := range n.children {
				if ch.entry[kind] != nil && (lowest < 0 || label < lowest) {
					lowest, n.entry[kind] = label, ch.entry[kind]
				}
			}
		}
		if n.own == nil && len(n.children) == 0 {
			delete(n.parent.children, n.label)
		}
	}
}

// Stats returns a point-in-time counter snapshot.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses,
		Insertions: c.insertions, Evictions: c.evictions,
		HitRows: c.hitRows,
		Entries: c.lru.Len(), Bytes: c.bytes, Budget: c.budget,
	}
}
