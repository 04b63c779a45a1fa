package prefixcache

import (
	"math"
	"testing"

	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/tensor"
)

func testCfg() model.Config {
	return model.Config{
		Name: "prefixcache-test", Family: model.FamilyLlama,
		Vocab: 64, Hidden: 32, Heads: 4, FFN: 64, Blocks: 2, MaxSeq: 64,
		LogitScale: 4, Activation: tensor.ActSiLU,
	}
}

func newModel(t *testing.T) *model.Model {
	t.Helper()
	return model.MustNew(testCfg(), 7, numerics.FP16)
}

// makeSnap prefills prompt on m and checkpoints the full-prompt KV.
func makeSnap(m *model.Model, prompt []int) *model.Snapshot {
	m.Prefill(prompt)
	snap := &model.Snapshot{}
	m.Checkpoint(snap)
	return snap
}

func seq(toks ...int) []int { return toks }

func TestLookupMissOnEmptyAndUnrelated(t *testing.T) {
	m := newModel(t)
	c := New(1 << 20)
	if ref := c.Lookup(seq(1, 2, 3), false); ref != nil {
		t.Fatal("hit on empty cache")
	}
	c.Insert(seq(1, 2, 3, 4), makeSnap(m, seq(1, 2, 3, 4)), nil, true)
	if ref := c.Lookup(seq(9, 8, 7), false); ref != nil {
		t.Fatal("hit on unrelated prompt")
	}
	if ref := c.Lookup(seq(1), false); ref != nil {
		t.Fatal("hit on single-token prompt (no usable rows)")
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 || st.Insertions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLookupCapsAtPromptMinusOne(t *testing.T) {
	m := newModel(t)
	c := New(1 << 20)
	p := seq(1, 2, 3, 4, 5)
	c.Insert(p, makeSnap(m, p), nil, true)
	ref := c.Lookup(p, false)
	if ref == nil {
		t.Fatal("miss on exact cached prompt")
	}
	defer ref.Release()
	if ref.Rows() != len(p)-1 {
		t.Fatalf("Rows() = %d, want %d", ref.Rows(), len(p)-1)
	}
	if v := ref.Snapshot(); v.Rows() != len(p)-1 {
		t.Fatalf("view rows = %d", v.Rows())
	}
}

func TestSharedPrefixPartialHit(t *testing.T) {
	m := newModel(t)
	c := New(1 << 20)
	a := seq(10, 11, 12, 13, 20, 21)
	c.Insert(a, makeSnap(m, a), nil, true)

	// Diverges after 4 shared tokens, mid-edge.
	b := seq(10, 11, 12, 13, 30, 31, 32)
	ref := c.Lookup(b, false)
	if ref == nil {
		t.Fatal("miss on shared-prefix prompt")
	}
	if ref.Rows() != 4 {
		t.Fatalf("Rows() = %d, want 4", ref.Rows())
	}
	ref.Release()

	// A second insert splits the edge; a third prompt still hits the shared node.
	a2 := seq(10, 11, 12, 13, 40, 41)
	c.Insert(a2, makeSnap(m, a2), nil, true)
	ref = c.Lookup(seq(10, 11, 12, 13, 50), false)
	if ref == nil || ref.Rows() != 4 {
		t.Fatalf("post-split hit = %v", ref)
	}
	ref.Release()
}

// rowTrail builds the trail of a one-site prefill whose row r held the single
// value vals[r] (NaN rows are corrected and counted).
func rowTrail(vals ...float32) *protect.Trail {
	tr := new(protect.Trail)
	data := append([]float32(nil), vals...)
	protect.NewStore().ObserveRows(protect.SiteKey{}, tensor.FromSlice(len(vals), 1, data), 0, true, tr)
	return tr
}

// TestProtectedHitsAtAnyDepth: a trail-carrying entry serves protected
// sessions at exactly the depth it serves unprotected ones, and the trail
// folds to the profile of just the rows the hit covers.
func TestProtectedHitsAtAnyDepth(t *testing.T) {
	m := newModel(t)
	c := New(1 << 20)
	p := seq(1, 2, 3, 4, 5, 6, 7, 8, 9)
	c.Insert(p, makeSnap(m, p), rowTrail(1, 2, 3, 4, 5, 6, 7, 8, 9), true)

	for _, q := range [][]int{seq(1, 2, 3, 4, 5, 6, 60, 61), seq(1, 2, 3, 70, 71), seq(1, 80), p} {
		bare, prot := c.Lookup(q, false), c.Lookup(q, true)
		want := MatchLen(p, q)
		if want == len(q) {
			want--
		}
		if bare == nil || prot == nil || bare.Rows() != want || prot.Rows() != want {
			t.Fatalf("%v: bare %v protected %v, want %d rows both", q, bare, prot, want)
		}
		store, nan := prot.Trail().At(prot.Rows())
		if b, _ := store.Get(protect.SiteKey{}); nan != 0 || b != (protect.Bounds{Lo: 1, Hi: float32(want)}) {
			t.Fatalf("%v: trail at %d rows = %v, %d NaN", q, want, b, nan)
		}
		bare.Release()
		prot.Release()
	}
}

func TestNaNTaintedEntryServesOnlyProtected(t *testing.T) {
	m := newModel(t)
	c := New(1 << 20)
	p := seq(1, 2, 3, 4, 5)
	nan := float32(math.NaN())
	c.Insert(p, makeSnap(m, p), rowTrail(1, nan, 3, nan, 5), false)

	if ref := c.Lookup(p, false); ref != nil {
		t.Fatal("NaN-tainted entry served an unprotected session")
	}
	ref := c.Lookup(seq(1, 2, 3, 4, 5, 6), true)
	if ref == nil || ref.Rows() != len(p) {
		t.Fatalf("protected hit = %v", ref)
	}
	ref.Release()
	// The additive count follows the depth: one corrected row below 3.
	ref = c.Lookup(seq(1, 2, 3, 9), true)
	if _, n := ref.Trail().At(ref.Rows()); ref.Rows() != 3 || n != 1 {
		t.Fatalf("hit at %d rows carries %d NaN corrections, want 3 rows, 1", ref.Rows(), n)
	}
	ref.Release()
	if c.Insert(seq(7, 8, 9), makeSnap(m, seq(7, 8, 9)), nil, false) {
		t.Fatal("admitted an entry that can serve no session")
	}
}

func TestDuplicateInsertAndUpgrade(t *testing.T) {
	m := newModel(t)
	c := New(1 << 20)
	p := seq(1, 2, 3, 4, 5)
	if !c.Insert(p, makeSnap(m, p), nil, true) {
		t.Fatal("first insert rejected")
	}
	if c.Insert(p, makeSnap(m, p), nil, true) {
		t.Fatal("duplicate insert admitted")
	}
	if ref := c.Lookup(p, true); ref != nil {
		t.Fatal("protected hit on unprotected-only entry")
	}
	// The protected duplicate upgrades the entry in place.
	if !c.Insert(p, makeSnap(m, p), new(protect.Trail), true) {
		t.Fatal("upgrade insert rejected")
	}
	ref := c.Lookup(seq(1, 2, 3, 4, 5, 6), true)
	if ref == nil || ref.Rows() != len(p) {
		t.Fatalf("post-upgrade protected hit = %v", ref)
	}
	ref.Release()
	if ref := c.Lookup(p, false); ref == nil {
		t.Fatal("unprotected hit lost after upgrade")
	} else {
		ref.Release()
	}
}

func TestInsertRejections(t *testing.T) {
	m := newModel(t)
	c := New(1 << 20)
	if c.Insert(seq(1), makeSnap(m, seq(1, 2)), nil, true) {
		t.Fatal("admitted single-token prompt")
	}
	// Snapshot with fewer rows than the prompt claims.
	short := makeSnap(m, seq(1, 2))
	if c.Insert(seq(1, 2, 3), short, nil, true) {
		t.Fatal("admitted snapshot shorter than prompt")
	}
	tiny := New(16) // budget smaller than any snapshot
	if tiny.Insert(seq(1, 2, 3), makeSnap(m, seq(1, 2, 3)), nil, true) {
		t.Fatal("admitted entry larger than the whole budget")
	}
}

func TestLRUByteBudgetEviction(t *testing.T) {
	m := newModel(t)
	one := makeSnap(m, seq(1, 2, 3, 4)).MemoryBytes()
	c := New(int64(one) * 2) // room for two entries
	a, b, d := seq(1, 2, 3, 4), seq(10, 11, 12, 13), seq(20, 21, 22, 23)
	c.Insert(a, makeSnap(m, a), nil, true)
	c.Insert(b, makeSnap(m, b), nil, true)
	if ref := c.Lookup(a, false); ref == nil { // touch a: b becomes LRU-most
		t.Fatal("miss on a")
	} else {
		ref.Release()
	}
	c.Insert(d, makeSnap(m, d), nil, true)

	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes > st.Budget {
		t.Fatalf("stats after eviction = %+v", st)
	}
	if ref := c.Lookup(b, false); ref != nil {
		t.Fatal("evicted entry still served")
	}
	for _, p := range [][]int{a, d} {
		if ref := c.Lookup(p, false); ref == nil {
			t.Fatalf("survivor %v missing", p)
		} else {
			ref.Release()
		}
	}
}

// TestEvictionWhileHeldNeverDangles: evicting an entry a session still holds
// must leave the holder's snapshot view fully usable — the forked prefill
// and decode must stay bit-identical to a cold run.
func TestEvictionWhileHeldNeverDangles(t *testing.T) {
	m := newModel(t)
	prompt := seq(1, 2, 3, 4, 5, 6)
	const n = 6
	want := m.Generate(prompt, n)

	one := makeSnap(m, prompt).MemoryBytes()
	c := New(int64(one)) // room for exactly one entry
	c.Insert(prompt, makeSnap(m, prompt), nil, true)
	ref := c.Lookup(prompt, false)
	if ref == nil {
		t.Fatal("miss on cached prompt")
	}

	// Force the held entry out: the only way to fit the new one.
	other := seq(30, 31, 32, 33, 34, 35)
	c.Insert(other, makeSnap(m, other), nil, true)
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("held entry not evicted: %+v", st)
	}
	if r2 := c.Lookup(prompt, false); r2 != nil {
		t.Fatal("evicted entry still in the tree")
	}

	// The holder's view must still resume bit-identically.
	m.BeginPrefill(len(prompt))
	m.ResumePrefillPrefix(ref.Snapshot())
	tok, done := m.PrefillChunk(prompt[ref.Rows():])
	if !done {
		t.Fatal("suffix chunk did not complete")
	}
	got := []int{tok}
	for s := 1; s < n; s++ {
		tok = m.DecodeStep(tok)
		got = append(got, tok)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("post-eviction fork diverged: got %v, want %v", got, want)
		}
	}
	ref.Release()
}

// TestEvictionPrefersUnheldEntries: with a held and an unheld entry over
// budget, the unheld one goes first even when it is more recently used.
func TestEvictionPrefersUnheldEntries(t *testing.T) {
	m := newModel(t)
	a, b, d := seq(1, 2, 3, 4), seq(10, 11, 12, 13), seq(20, 21, 22, 23)
	one := makeSnap(m, a).MemoryBytes()
	c := New(int64(one) * 2)
	c.Insert(a, makeSnap(m, a), nil, true)
	c.Insert(b, makeSnap(m, b), nil, true)
	refA := c.Lookup(a, false) // hold a; also makes it most-recent
	if refA == nil {
		t.Fatal("miss on a")
	}
	// LRU order now: a (held, recent), b (unheld, older)... insert d evicts b.
	// Then touch nothing and insert one more: a is held, d unheld → d goes.
	c.Insert(d, makeSnap(m, d), nil, true)
	if ref := c.Lookup(b, false); ref != nil {
		t.Fatal("b survived")
	}
	e := seq(40, 41, 42, 43)
	c.Insert(e, makeSnap(m, e), nil, true)
	if ref := c.Lookup(a, false); ref == nil {
		t.Fatal("held entry was evicted while an unheld one existed")
	} else {
		ref.Release()
	}
	refA.Release()
}

// TestEvictionKeepsSharedPrefixReachable: evicting the entry an interior
// node points at must not hide the live entries left in its subtree — a
// new-suffix prompt still hits the whole shared prefix.
func TestEvictionKeepsSharedPrefixReachable(t *testing.T) {
	m := newModel(t)
	a, b := seq(1, 2, 3, 4, 10, 11), seq(1, 2, 3, 4, 20, 21)
	c := New(int64(makeSnap(m, a).MemoryBytes()) * 2) // room for two entries
	c.Insert(a, makeSnap(m, a), nil, true)
	c.Insert(b, makeSnap(m, b), nil, true)
	if ref := c.Lookup(b, false); ref == nil { // touch b: a becomes LRU-most
		t.Fatal("miss on b")
	} else {
		ref.Release()
	}
	other := seq(40, 41, 42, 43, 44, 45)
	c.Insert(other, makeSnap(m, other), nil, true) // evicts a, which the shared node pointed at
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	ref := c.Lookup(seq(1, 2, 3, 4, 30, 31), false)
	if ref == nil || ref.Rows() != 4 {
		t.Fatalf("new-suffix lookup with b live = %v, want a 4-row hit", ref)
	}
	ref.Release()
}
