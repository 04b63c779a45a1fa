package prefixcache

import (
	"slices"
	"testing"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
)

// livePrompt is the naive model's view of one cached prompt.
type livePrompt struct {
	prompt  []int
	trail   bool
	nanFree bool
	refs    int
	e       *entry // the cache's entry, to follow which one a lookup picked
}

func (l *livePrompt) serves(protected bool) bool {
	if protected {
		return l.trail
	}
	return l.nanFree
}

// heldRef is a Ref the fuzz sequence has not released yet and the model
// prompt it pins.
type heldRef struct {
	ref *Ref
	of  *livePrompt
}

// FuzzCacheOps drives a byte-coded sequence of Insert / Lookup / Release over
// a 4-token alphabet, under a budget of twelve KV rows so evictions are
// constant, against a naive model: a slice of live prompts in LRU order.
// A lookup must hit exactly the longest common prefix with any live prompt
// that serves its kind of session (capped at len-1); inserts are admitted,
// refused, replaced and evicted by the documented rules; the byte account is
// the sum of the live entries; and every refcount returns to zero.
//
// Depth must answer what the next Lookup's Rows will and leave no trace: the
// counters are compared around it, and since the model's LRU order is not
// touched, a Depth that moved an entry shows at the next eviction.
//
// Each op is a header byte — bits 0-1: 0,1 insert, 2 lookup, 3 release the
// oldest held ref; bits 2-3: insert flavour (bare, trail, NaN-tainted trail,
// serves-no-one) or bit 2 lookup protected, bit 3 Depth only; bits 4-6:
// prompt length — then that many token bytes.
func FuzzCacheOps(f *testing.F) {
	const maxLen = 7
	m := model.MustNew(testCfg(), 7, numerics.FP16)
	snaps := make([]*model.Snapshot, maxLen+1) // immutable, shared by every entry of that length
	for n := 1; n <= maxLen; n++ {
		snaps[n] = makeSnap(m, make([]int, n))
	}
	budget := int64(snaps[6].MemoryBytes()) * 2

	// TestEvictionKeepsSharedPrefixReachable: two prompts sharing four tokens,
	// the second touched, an unrelated third evicting the first.
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

	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New(budget)
		var live []*livePrompt // front = most recently used
		var all []*entry
		var held []heldRef
		touch := func(l *livePrompt) {
			live = slices.Insert(slices.DeleteFunc(live, func(x *livePrompt) bool { return x == l }), 0, l)
		}
		sum := func() (n int64) {
			for _, l := range live {
				n += l.e.bytes
			}
			return n
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
				flavour := (h >> 2) % 4
				nu := &livePrompt{prompt: prompt, trail: flavour == 1 || flavour == 2, nanFree: flavour <= 1}
				var trail *protect.Trail
				if nu.trail {
					trail = new(protect.Trail)
				}
				want := n >= 2 && (nu.trail || nu.nanFree)
				if want {
					same := slices.IndexFunc(live, func(l *livePrompt) bool { return slices.Equal(l.prompt, prompt) })
					switch {
					case same >= 0 && (!nu.trail || live[same].trail) && (!nu.nanFree || live[same].nanFree):
						touch(live[same])
						want = false
					case same >= 0:
						live = slices.Delete(live, same, same+1)
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
					live = slices.Insert(live, 0, nu)
					for sum() > budget { // evictLocked's rule: LRU-most unheld, else LRU-most
						victim := -1
						for i := len(live) - 1; i > 0; i-- { // live[0] is the new entry
							if victim < 0 {
								victim = i
							}
							if live[i].refs == 0 {
								victim = i
								break
							}
						}
						if victim < 0 {
							break
						}
						live = slices.Delete(live, victim, victim+1)
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
				if protected && ref.Trail() == nil {
					t.Fatalf("protected hit without a trail")
				}
				l := live[i]
				l.refs++
				touch(l)
				held = append(held, heldRef{ref, l})

			case 3: // release
				if len(held) > 0 {
					held[0].ref.Release()
					held[0].of.refs--
					held = held[1:]
				}
			}

			st := c.Stats()
			if st.Bytes != sum() || st.Entries != len(live) || st.Bytes > st.Budget {
				t.Fatalf("stats %+v, model holds %d entries / %d bytes", st, len(live), sum())
			}
		}

		for _, h := range held {
			h.ref.Release()
		}
		for _, e := range all {
			if e.refs != 0 {
				t.Fatalf("entry left with %d refs after every Ref was released", e.refs)
			}
		}
	})
}
