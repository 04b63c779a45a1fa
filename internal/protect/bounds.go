// Package protect implements range-restriction protection for the
// transformer engine: per-layer activation bounds, the fused
// clamp+NaN-correction operator (the paper's torch.clamp/nan_to_num fusion),
// an offline bound profiler (the expensive baseline workflow), the
// row-granular first-token bounds trail, the DMR stage and the tier policy
// that core.FT2 compiles into its one hook.
package protect

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// Bounds is the protected range of one layer's activations. Only two scalar
// values per layer are stored — the paper's 288–512 byte total memory
// overhead.
type Bounds struct {
	Lo, Hi float32
}

// Contains reports whether v lies inside the bounds (NaN never does).
func (b Bounds) Contains(v float32) bool {
	return v >= b.Lo && v <= b.Hi // NaN comparisons are false
}

// Scale widens the bounds by factor s ≥ 1 — the paper's bound scaling
// (Section 4.2.1, factor 2 in FT2). The interval always grows: a negative
// lower bound is multiplied by s, a positive one divided by s (and
// symmetrically for the upper bound), so limited first-token data never
// yields a *tighter* range after scaling.
func (b Bounds) Scale(s float32) Bounds {
	out := b
	if out.Lo <= 0 {
		out.Lo *= s
	} else {
		out.Lo /= s
	}
	if out.Hi >= 0 {
		out.Hi *= s
	} else {
		out.Hi /= s
	}
	return out
}

// Widen returns bounds covering both b and o.
func (b Bounds) Widen(o Bounds) Bounds {
	out := b
	if o.Lo < out.Lo {
		out.Lo = o.Lo
	}
	if o.Hi > out.Hi {
		out.Hi = o.Hi
	}
	return out
}

// Store maps protected sites to bounds. A zero-value Store is empty and
// ready to use through Observe/Set.
type Store struct {
	mu sync.RWMutex
	m  map[SiteKey]Bounds
}

// SiteKey addresses a protected site (layer instance + hook site).
type SiteKey struct {
	Layer model.LayerRef
	Site  model.Site
}

// NewStore returns an empty bounds store.
func NewStore() *Store { return &Store{m: make(map[SiteKey]Bounds)} }

// Set stores bounds for a site.
func (s *Store) Set(k SiteKey, b Bounds) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[SiteKey]Bounds)
	}
	s.m[k] = b
}

// Get returns the bounds for a site and whether they exist.
func (s *Store) Get(k SiteKey) (Bounds, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.m[k]
	return b, ok
}

// Observe widens the stored bounds of a site to cover every finite value in
// the tensor. NaNs are skipped (they are corrected, not learned).
func (s *Store) Observe(k SiteKey, t *tensor.Tensor) {
	seen, ok, _ := finiteRange(t.Data, false)
	if !ok {
		return // nothing finite to learn
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[SiteKey]Bounds)
	}
	if cur, ok := s.m[k]; ok {
		s.m[k] = cur.Widen(seen)
	} else {
		s.m[k] = seen
	}
}

// Len returns the number of sites with recorded bounds.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Reset clears every recorded bound. The map's buckets are kept, so a
// per-inference Reset/Observe cycle over a stable site set (the FT2 hot
// path) stops touching the allocator after the first inference.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[SiteKey]Bounds)
		return
	}
	clear(s.m)
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := &Store{m: make(map[SiteKey]Bounds, len(s.m))}
	for k, b := range s.m {
		out.m[k] = b
	}
	return out
}

// MemoryBytes reports the storage footprint of the bounds when held in the
// model's dtype (2 values per protected layer), the paper's Section 5.2.2
// memory-overhead accounting.
func (s *Store) MemoryBytes(d numerics.DType) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m) * 2 * d.Bits() / 8
}

// Entry pairs a protected site with its recorded bounds.
type Entry struct {
	Key    SiteKey
	Bounds Bounds
}

// SortedEntries returns every recorded bound in canonical (block, kind,
// site) order — the deterministic traversal the wire codec needs so the
// same store always serializes to the same bytes.
func (s *Store) SortedEntries() []Entry {
	s.mu.RLock()
	out := make([]Entry, 0, len(s.m))
	for k, b := range s.m {
		out = append(out, Entry{k, b})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Layer.Block != b.Layer.Block {
			return a.Layer.Block < b.Layer.Block
		}
		if a.Layer.Kind != b.Layer.Kind {
			return a.Layer.Kind < b.Layer.Kind
		}
		return a.Site < b.Site
	})
	return out
}

// String renders the store contents sorted by site for stable output.
func (s *Store) String() string {
	var sb strings.Builder
	for _, e := range s.SortedEntries() {
		fmt.Fprintf(&sb, "%s/%s: [%g, %g]\n", e.Key.Layer, e.Key.Site, e.Bounds.Lo, e.Bounds.Hi)
	}
	return sb.String()
}
