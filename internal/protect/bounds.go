// Package protect implements range-restriction protection for the
// transformer engine: per-layer activation bounds, the fused
// clamp+NaN-correction operator (the paper's torch.clamp/nan_to_num fusion),
// an offline bound profiler (the expensive baseline workflow), the
// row-granular first-token bounds trail, the DMR stage and the tier policy
// that core.FT2 compiles into its one hook.
package protect

import (
	"fmt"
	"math"
	"slices"
	"strings"

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

// Valid reports whether both ends are finite and Lo ≤ Hi, as a learned range
// always is. An infinite bound clamps nothing; a NaN or inverted one clamps
// every value.
func (b Bounds) Valid() bool {
	return b.Lo <= b.Hi && !math.IsInf(float64(b.Lo), 0) && !math.IsInf(float64(b.Hi), 0)
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

// Store holds the bounds of protected sites in one slice indexed by site
// slot — (block, kind, site) order, grown on Set — so the clamp's lookup is
// an index. A zero-value Store is empty and ready to use through
// Observe/Set. A store has no lock: only the one controller whose learn pass
// fills it writes it, and a store shared between sessions or trials is
// read-only from then on.
type Store struct {
	slots []slot
	n     int // slots holding bounds
}

// slot is one site's bounds; ok is false where none were recorded.
type slot struct {
	b  Bounds
	ok bool
}

// SiteKey addresses a protected site (layer instance + hook site).
type SiteKey struct {
	Layer model.LayerRef
	Site  model.Site
}

const sitesPerKind = int(model.SiteActivationOut) + 1

// slotOf is the site's index in a store.
func slotOf(k SiteKey) int {
	return (k.Layer.Block*model.NumLayerKinds+int(k.Layer.Kind))*sitesPerKind + int(k.Site)
}

// keyOf is slotOf's inverse.
func keyOf(i int) SiteKey {
	l := i / sitesPerKind
	return SiteKey{Layer: model.LayerRef{Block: l / model.NumLayerKinds, Kind: model.LayerKind(l % model.NumLayerKinds)}, Site: model.Site(i % sitesPerKind)}
}

// NewStore returns an empty bounds store.
func NewStore() *Store { return &Store{} }

// Set stores bounds for a site.
func (s *Store) Set(k SiteKey, b Bounds) { s.set(slotOf(k), b) }

func (s *Store) set(i int, b Bounds) {
	if i >= len(s.slots) {
		s.slots = append(s.slots, make([]slot, i+1-len(s.slots))...)
	}
	if !s.slots[i].ok {
		s.n++
	}
	s.slots[i] = slot{b, true}
}

// Get returns the bounds for a site and whether they exist.
func (s *Store) Get(k SiteKey) (Bounds, bool) { return s.get(slotOf(k)) }

func (s *Store) get(i int) (Bounds, bool) {
	if uint(i) >= uint(len(s.slots)) {
		return Bounds{}, false
	}
	return s.slots[i].b, s.slots[i].ok
}

// widen widens slot i's bounds to cover b.
func (s *Store) widen(i int, b Bounds) {
	if cur, ok := s.get(i); ok {
		b = cur.Widen(b)
	}
	s.set(i, b)
}

// Observe widens the stored bounds of a site to cover every finite value in
// the tensor. NaNs are skipped (they are corrected, not learned).
func (s *Store) Observe(k SiteKey, t *tensor.Tensor) {
	if seen, ok, _ := finiteRange(t.Data, false); ok {
		s.widen(slotOf(k), seen)
	}
}

// Len returns the number of sites with recorded bounds.
func (s *Store) Len() int { return s.n }

// Reset clears every recorded bound. The slots are kept, so a per-inference
// Reset/Observe cycle (the FT2 hot path) stops touching the allocator after
// the first inference.
func (s *Store) Reset() {
	clear(s.slots)
	s.n = 0
}

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store { return &Store{slots: slices.Clone(s.slots), n: s.n} }

// MemoryBytes reports the storage footprint of the bounds when held in the
// model's dtype (2 values per protected layer), the paper's Section 5.2.2
// memory-overhead accounting.
func (s *Store) MemoryBytes(d numerics.DType) int { return s.n * 2 * d.Bits() / 8 }

// Entry pairs a protected site with its recorded bounds.
type Entry struct {
	Key    SiteKey
	Bounds Bounds
}

// SortedEntries returns every recorded bound in canonical (block, kind,
// site) order — slot order, the deterministic traversal the wire codec needs
// so the same store always serializes to the same bytes.
func (s *Store) SortedEntries() []Entry {
	out := make([]Entry, 0, s.n)
	for i, e := range s.slots {
		if e.ok {
			out = append(out, Entry{keyOf(i), e.b})
		}
	}
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
