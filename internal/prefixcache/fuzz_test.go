package prefixcache

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

// livePrompt is the naive model's view of one cached prompt.
type livePrompt struct {
	prompt  []int
	trail   bool
	flat    *protect.Trail // the trail inserted, whole
	nanFree bool
	refs    int
	e       *entry // the cache's entry, to follow which one a lookup picked

	base    *livePrompt // the prompt whose rows [0,shared) this one reads
	shared  int
	readers int  // charged prompts whose base this is
	live    bool // in the tree; a detached prompt stays charged while read
}

func (l *livePrompt) serves(protected bool) bool {
	if protected {
		return l.trail
	}
	return l.nanFree
}

// heldRef is a Ref the fuzz sequence has not released yet, the model prompt
// it pins, and the view a session borrowing the hit would read.
type heldRef struct {
	ref  *Ref
	of   *livePrompt
	view *model.Snapshot
}

// FuzzCacheOps drives a byte-coded sequence of Insert / Lookup / Release over
// a 4-token alphabet, under a budget of twelve KV rows so evictions are
// constant, against a naive model: a slice of live prompts in LRU order and
// the set of charged ones. A lookup must hit exactly the longest common prefix
// with any live prompt that serves its kind of session (capped at len-1);
// inserts are admitted, refused, replaced and evicted by the documented
// rules; and every refcount returns to zero.
//
// The byte account charges each prompt only the rows past its base: a
// nanFree newcomer reads the rows it shares with the nanFree live prompt of
// the longest common prefix k when k is at least the n-k rows it keeps (the
// cache names which such prompt; the model checks the choice). A prompt with
// readers is never a victim, a detached one stays charged while it has
// readers, and a newcomer whose rows and its bases' exceed the budget is
// refused. A NaN-tainted newcomer always stays whole.
//
// Depth must answer what the next Lookup's Rows will and leave no trace: the
// counters are compared around it, and since the model's LRU order is not
// touched, a Depth that moved an entry shows at the next eviction.
//
// A hit is held the way a session borrowing it holds it: the Ref and its
// Snapshot view live on across later inserts and evictions, Stats.Held
// counting them, and the release op first checks that the view still reads
// the rows a cold snapshot holds; releasing twice is a no-op.
//
// Trails carry records: row r of a prompt records what a function of its
// first r+1 tokens observes, as a prefill's rows would, and a NaN-tainted
// prompt's last row a NaN. At every hit, Ref.Trail folds at Rows() exactly as
// the whole trail inserted for that prompt does, and Stats.TrailBytes is the
// records the charged prompts hold, each once: a prompt reading rows from a
// base with a trail holds only the records of the rows past them.
//
// Each op is a header byte — bits 0-1: 0,1 insert, 2 lookup, 3 release the
// oldest held ref; bits 2-3: insert flavour (bare, trail, NaN-tainted trail,
// serves-no-one) or bit 2 lookup protected, bit 3 Depth only; bits 4-6:
// prompt length; bit 7: an insert's prompt extends the most recently used
// live prompt (cut to seven tokens) — then that many token bytes.
func FuzzCacheOps(f *testing.F) {
	const maxLen = 7
	m := model.MustNew(testCfg(), 7, numerics.FP16)
	snaps := make([]*model.Snapshot, maxLen+1) // immutable, shared by every entry of that length
	for n := 1; n <= maxLen; n++ {
		snaps[n] = makeSnap(m, make([]int, n))
	}
	budget := int64(snaps[6].MemoryBytes()) * 2
	rowBytes := int64(snaps[1].MemoryBytes())

	// TestEvictionKeepsSharedPrefixReachable: two prompts sharing two tokens,
	// the second touched, an unrelated third evicting the first.
	f.Add([]byte{
		0x60, 0, 1, 0, 0, 0, 0, 0x60, 0, 1, 1, 1, 1, 1, 0x62, 0, 1, 1, 1, 1, 1,
		0x60, 3, 3, 3, 3, 3, 3, 0x62, 0, 1, 2, 2, 2, 2,
	})
	// The same with four shared tokens: the second reads them from the first,
	// so the third evicts the second (leaf-first).
	f.Add([]byte{
		0x60, 0, 1, 2, 3, 0, 0, 0x60, 0, 1, 2, 3, 1, 1, 0x62, 0, 1, 2, 3, 1, 1,
		0x60, 3, 3, 3, 3, 3, 3, 0x62, 0, 1, 2, 3, 2, 2,
	})
	// Depth between a touch and an eviction: it must not save the first prompt.
	f.Add([]byte{
		0x60, 0, 1, 2, 3, 0, 0, 0x60, 0, 1, 2, 3, 1, 1, 0x6a, 0, 1, 2, 3, 0, 0,
		0x60, 3, 3, 3, 3, 3, 3, 0x6e, 0, 1, 2, 3, 0, 0, 0x62, 0, 1, 2, 3, 0, 0,
	})
	// Mixed flavours on one path: a trail upgrade, a tainted entry, a covered
	// shorter prompt, protected and bare lookups, releases.
	f.Add([]byte{
		0x40, 0, 1, 2, 3, 0x44, 0, 1, 2, 3, 0x68, 0, 1, 2, 3, 2, 2, 0x20, 0, 1,
		0x66, 0, 1, 2, 3, 2, 0, 0x62, 0, 1, 2, 3, 2, 0, 0x03, 0x70, 1, 1, 1, 1, 1, 1, 1, 0x03,
	})

	// A NaN-tainted trail entry replaced by a clean one: bare lookups hit.
	f.Add([]byte{0x48, 0, 1, 2, 3, 0x44, 0, 1, 2, 3, 0x52, 0, 1, 2, 3, 1, 0x40, 0, 1, 2, 3})
	// Shares: a clean prompt under a cached one, a NaN-tainted one under it
	// (whole), a duplicate with a trail replacing its own base (detached,
	// still charged), then evictions that must go leaf-first.
	f.Add([]byte{
		0x40, 0, 1, 2, 3, 0xa0, 1, 1, 0xa8, 2, 2, 0x44, 0, 1, 2, 3,
		0x62, 0, 1, 2, 3, 1, 0x70, 3, 3, 3, 3, 3, 3, 3, 0x03, 0x70, 2, 2, 2, 2, 2, 2, 2,
	})
	// Trails sharing trails: a prompt with a trail, two extending it, each
	// reading its base's records; protected lookups at every depth.
	f.Add([]byte{0x44, 0, 1, 2, 3, 0x94, 2, 0x94, 3, 0x56, 0, 1, 2, 3, 2, 0x66, 0, 1, 2, 3, 2, 3, 0x46, 0, 1, 2, 1})
	// A chain: each prompt extends the last by one clean token.
	f.Add([]byte{0x20, 0, 1, 0x90, 2, 0x90, 3, 0x90, 0, 0x90, 1, 0x90, 2, 0x70, 3, 3, 3, 3, 3, 3, 3})

	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New(budget)
		var live []*livePrompt    // front = most recently used
		var charged []*livePrompt // live, and detached ones still read
		var all []*entry
		var held []heldRef
		touch := func(l *livePrompt) {
			live = slices.Insert(slices.DeleteFunc(live, func(x *livePrompt) bool { return x == l }), 0, l)
		}
		own := func(l *livePrompt) int64 { return rowBytes * int64(len(l.prompt)-l.shared) }
		sum := func() (n int64) {
			for _, l := range charged {
				n += own(l)
			}
			return n
		}
		// detach takes l out of the tree, and off the account unless read;
		// an uncharged prompt releases its base.
		detach := func(l *livePrompt) {
			live = slices.DeleteFunc(live, func(x *livePrompt) bool { return x == l })
			l.live = false
			for l != nil && !l.live && l.readers == 0 {
				charged = slices.DeleteFunc(charged, func(x *livePrompt) bool { return x == l })
				if l = l.base; l != nil {
					l.readers--
				}
			}
		}
		of := func(e *entry) *livePrompt {
			i := slices.IndexFunc(charged, func(l *livePrompt) bool { return l.e == e })
			if i < 0 {
				t.Fatalf("the cache names an entry the model does not charge")
			}
			return charged[i]
		}

		for len(ops) > 0 {
			h := ops[0]
			n := min(int(h>>4)%8, len(ops)-1)
			prompt := make([]int, n)
			for i, b := range ops[1 : 1+n] {
				prompt[i] = int(b % 4)
			}
			ops = ops[1+n:]

			switch op := h % 4; op {
			case 0, 1: // insert
				if h&0x80 != 0 && len(live) > 0 {
					prompt = append(slices.Clone(live[0].prompt), prompt...)[:min(len(live[0].prompt)+n, maxLen)]
					n = len(prompt)
				}
				flavour := (h >> 2) % 4
				nu := &livePrompt{prompt: prompt, trail: flavour == 1 || flavour == 2, nanFree: flavour <= 1, live: true}
				var trail *protect.Trail
				if nu.trail {
					trail = trailOf(prompt, !nu.nanFree)
					nu.flat = trailOf(prompt, !nu.nanFree)
				}
				want := n >= 2 && (nu.trail || nu.nanFree)
				var base, replaced *livePrompt
				if want {
					k := 0
					for _, l := range live {
						if nu.nanFree && l.nanFree {
							k = max(k, MatchLen(l.prompt, prompt))
						}
					}
					c.mu.Lock()
					be, bk := c.shareBaseLocked(prompt, n, nu.nanFree)
					c.mu.Unlock()
					if k >= n-k {
						if be == nil {
							t.Fatalf("Insert(%v) would not share %d rows", prompt, k)
						}
						base, nu.shared = of(be), bk
						if bk != k || !base.nanFree || MatchLen(base.prompt, prompt) < k || base.base != nil && base.shared >= k {
							t.Fatalf("Insert(%v) would read %d rows from %v (shares %d, its base %d); model says %d rows of a nanFree prompt",
								prompt, bk, base.prompt, MatchLen(base.prompt, prompt), base.shared, k)
						}
					} else if be != nil {
						t.Fatalf("Insert(%v) would share %d rows, model says stay whole (k = %d)", prompt, bk, k)
					}
					pinned := own(nu)
					for b := base; b != nil; b = b.base {
						pinned += own(b)
					}
					want = pinned <= budget
				}
				if want {
					same := slices.IndexFunc(live, func(l *livePrompt) bool { return slices.Equal(l.prompt, prompt) })
					switch {
					case same >= 0 && (!nu.trail || live[same].trail) && (!nu.nanFree || live[same].nanFree):
						touch(live[same])
						want = false
					case same >= 0:
						replaced = live[same]
					default:
						covered := true
						for _, protected := range []bool{false, true} {
							covered = covered && (!nu.serves(protected) || slices.ContainsFunc(live, func(l *livePrompt) bool {
								return l.serves(protected) && len(l.prompt) > n && slices.Equal(l.prompt[:n], prompt)
							}))
						}
						want = !covered
					}
				}
				if n == 0 {
					n = 1 // any snapshot will do: the prompt is refused first
				}
				if got := c.Insert(prompt, snaps[n], trail, nu.nanFree); got != want {
					t.Fatalf("Insert(%v, trail %v, nanFree %v) = %v, model says %v", prompt, nu.trail, nu.nanFree, got, want)
				}
				if want {
					nu.e = c.lru.Front().Value.(*entry)
					all = append(all, nu.e)
					if base != nil {
						base.readers++
						if nu.e.base != base.e {
							t.Fatalf("Insert(%v) read from another entry than it named", prompt)
						}
					}
					nu.base = base
					if replaced != nil {
						detach(replaced) // after nu took its hold: replaced may be its base
					}
					if !nu.nanFree && (nu.e.base != nil || nu.e.bytes != rowBytes*int64(n)) {
						t.Fatalf("NaN-tainted Insert(%v) shares %d rows", prompt, nu.e.snap.Shared())
					}
					live = slices.Insert(live, 0, nu)
					charged = append(charged, nu)
					for sum() > budget { // evictLocked's rule: LRU-most unheld unread, else LRU-most unread
						victim := -1
						for i := len(live) - 1; i > 0; i-- { // live[0] is the new entry
							if live[i].readers > 0 {
								continue
							}
							if victim < 0 {
								victim = i
							}
							if live[i].refs == 0 {
								victim = i
								break
							}
						}
						if victim < 0 {
							t.Fatalf("model over budget with no victim")
						}
						detach(live[victim])
					}
				}

			case 2: // lookup
				protected := (h>>2)%2 == 1
				want := 0
				for _, l := range live {
					if l.serves(protected) {
						want = max(want, MatchLen(l.prompt, prompt))
					}
				}
				want = max(min(want, n-1), 0)
				before := c.Stats()
				if got := c.Depth(prompt, protected); got != want || c.Stats() != before {
					t.Fatalf("Depth(%v, %v) = %d, model says %d; stats %+v -> %+v", prompt, protected, got, want, before, c.Stats())
				}
				if (h>>3)%2 == 1 {
					break // Depth only: nothing held, nothing touched
				}
				ref := c.Lookup(prompt, protected)
				if ref == nil {
					if want >= 1 {
						t.Fatalf("Lookup(%v, %v) missed, model says %d rows", prompt, protected, want)
					}
					break
				}
				if ref.Rows() != want {
					t.Fatalf("Lookup(%v, %v) = %d rows, model says %d", prompt, protected, ref.Rows(), want)
				}
				i := slices.IndexFunc(live, func(l *livePrompt) bool { return l.e == ref.e })
				if i < 0 || !live[i].serves(protected) || MatchLen(live[i].prompt, prompt) < want {
					t.Fatalf("Lookup(%v, %v) returned an entry that is evicted, ineligible or too short", prompt, protected)
				}
				l := live[i]
				if protected && ref.Trail() == nil {
					t.Fatalf("protected hit without a trail")
				}
				if l.trail {
					got, gotNaN := ref.Trail().At(ref.Rows())
					want, wantNaN := l.flat.At(ref.Rows())
					if !sameStore(got, want) || gotNaN != wantNaN {
						t.Fatalf("Lookup(%v, %v): the hit's trail folds at %d rows to %d NaN %v, the inserted one to %d NaN %v",
							prompt, protected, ref.Rows(), gotNaN, got, wantNaN, want)
					}
				}
				l.refs++
				touch(l)
				held = append(held, heldRef{ref, l, ref.Snapshot()})

			case 3: // release
				if len(held) > 0 {
					h := held[0]
					if !bytes.Equal(model.AppendSnapshot(nil, h.view), model.AppendSnapshot(nil, snaps[maxLen].Prefix(h.ref.Rows()))) {
						t.Fatalf("a held %d-row view of %v reads other rows at release", h.ref.Rows(), h.of.prompt)
					}
					h.ref.Release()
					h.of.refs--
					held = held[1:]
				}
			}

			st := c.Stats()
			if st.Bytes != sum() || st.Entries != len(live) || st.Bytes > st.Budget || st.Held != len(held) {
				t.Fatalf("stats %+v, model holds %d entries / %d bytes / %d refs", st, len(live), sum(), len(held))
			}
			var trailBytes int64
			for _, l := range charged {
				if l.e.bytes != own(l) {
					t.Fatalf("%v is charged %d bytes, model says %d", l.prompt, l.e.bytes, own(l))
				}
				trailBytes += int64(l.e.trail.MemoryBytes())
				from := 0
				if l.base != nil && l.base.trail {
					from = l.shared
				}
				if want := l.flat.Share(nil, from).MemoryBytes(); l.e.trail.MemoryBytes() != want {
					t.Fatalf("%v holds %d bytes of trail records, want those of rows ≥ %d: %d", l.prompt, l.e.trail.MemoryBytes(), from, want)
				}
			}
			if st.TrailBytes != trailBytes {
				t.Fatalf("Stats.TrailBytes = %d, charged prompts hold %d", st.TrailBytes, trailBytes)
			}
		}

		for _, h := range held {
			h.ref.Release()
			h.ref.Release()
		}
		for _, e := range all {
			if e.refs != 0 {
				t.Fatalf("entry left with %d refs after every Ref was released", e.refs)
			}
		}
		if held := c.Stats().Held; held != 0 {
			t.Fatalf("Stats.Held = %d after every Ref was released", held)
		}
	})
}

// trailOf is the trail a prefill of prompt records: row r observes two values
// that are a function of prompt[:r+1] alone, at one of two sites the same
// function picks, and a tainted prompt's last row carries a NaN.
func trailOf(prompt []int, tainted bool) *protect.Trail {
	keys := [2]protect.SiteKey{
		{Layer: model.LayerRef{Block: 0, Kind: model.VProj}},
		{Layer: model.LayerRef{Block: 1, Kind: model.DownProj}},
	}
	tr, s, h := new(protect.Trail), protect.NewStore(), 0
	for r, tok := range prompt {
		h = h*5 + tok + 1
		row := []float32{float32(h%7) - 3, float32(h%11) - 5}
		if tainted && r == len(prompt)-1 {
			row[1] = float32(math.NaN())
		}
		s.ObserveRows(keys[h%2], tensor.FromSlice(1, 2, row), r, true, tr)
	}
	return tr
}

func sameStore(a, b *protect.Store) bool {
	ea, eb := a.SortedEntries(), b.SortedEntries()
	return slices.EqualFunc(ea, eb, func(x, y protect.Entry) bool {
		return x.Key == y.Key && math.Float32bits(x.Bounds.Lo) == math.Float32bits(y.Bounds.Lo) && math.Float32bits(x.Bounds.Hi) == math.Float32bits(y.Bounds.Hi)
	})
}
