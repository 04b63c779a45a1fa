package model

import (
	"bytes"
	"slices"
	"testing"

	"ft2/internal/numerics"
)

// FuzzKVRowsChain drives the ways rows come to be read from a base — a
// chain of Shares, Prefix views of it, a prefill that borrows such a view,
// decode steps on the borrowing state, a Reserve that moves its slabs and a
// KVSlabs copy-on-write that ends the borrow — and holds every reader to a
// flat cold Checkpoint of the same tokens: wire bytes, a Restore's KV, the
// borrowing state's tokens, and MemoryBytes / KVOwn counting only the rows
// each holds. The input decodes as: family, prompt length, decode steps,
// Share chain depth (0–4) and one depth byte per link, the borrowed rows,
// the reservation, the chunk size, the decode step that copies on write, the
// one that reserves, then the prompt's tokens.
func FuzzKVRowsChain(f *testing.F) {
	f.Add([]byte{2, 9, 4, 2, 3, 6, 5, 0, 3, 1, 2, 10, 20, 30, 40, 50})
	f.Add([]byte{0, 14, 5, 4, 1, 1, 7, 12, 9, 7, 4, 9, 0, 11, 22, 33, 44})
	f.Add([]byte{1, 5, 0, 1, 5, 4, 3, 1, 9, 9, 8, 6, 7})
	f.Add([]byte{2, 15, 3, 3, 0, 15, 8, 14, 2, 16, 2, 0, 5, 60, 61, 62, 63})
	var models, restorers [3]*Model
	for i := range models {
		models[i] = MustNew(smallCfg(Family(i)), 7, numerics.FP16)
		restorers[i] = MustNew(smallCfg(Family(i)), 7, numerics.FP16)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 || len(b) < 10+int(b[3])%5 {
			return
		}
		m, m2 := models[int(b[0])%3], restorers[int(b[0])%3]
		cfg := m.Cfg
		n, g, links := 2+int(b[1])%14, int(b[2])%6, int(b[3])%5
		ks := make([]int, links)
		for i := range ks {
			ks[i] = int(b[4+i]) % (n + 1)
		}
		slices.Sort(ks)
		b = b[4+links:]
		r, reserve, chunk, cow, grow := int(b[0])%n, int(b[1]), 1+int(b[2])%n, int(b[3]), int(b[4])
		toks := b[5:]
		prompt := make([]int, n)
		for i := range prompt {
			prompt[i] = 4 + int(toks[i%len(toks)]+byte(i))%(cfg.Vocab-4)
		}
		rowBytes := cfg.Blocks * 2 * cfg.Hidden * 4
		wire := func(s *Snapshot) []byte { return AppendSnapshot(nil, s) }
		checkpoint := func() *Snapshot {
			var s Snapshot
			m.Checkpoint(&s)
			return &s
		}

		// The flat cold reference: the prompt's rows, then g decode steps.
		want := []int{m.Prefill(prompt)}
		flatPrompt := checkpoint()
		for range g {
			want = append(want, m.DecodeStep(want[len(want)-1]))
		}
		flat := checkpoint()

		// A chain of Shares: link i holds prompt[:ks[i]] followed by tokens
		// the prompt never has there, and reads its first ks[i-1] rows from
		// link i-1.
		var base *Snapshot
		for i, k := range ks {
			other := append([]int(nil), prompt[:k]...)
			for j := k; j < k+2; j++ {
				other = append(other, 4+(prompt[j%n]-4+1)%(cfg.Vocab-4))
			}
			m.Prefill(other)
			link := checkpoint()
			if i > 0 {
				link = link.Share(base, ks[i-1])
			}
			base = link
		}
		s := flatPrompt
		if links > 0 {
			s = flatPrompt.Share(base, ks[links-1])
		}
		if !bytes.Equal(wire(s), wire(flatPrompt)) {
			t.Fatalf("chain %v: wire bytes differ from the flat snapshot", ks)
		}
		if s.MemoryBytes() != rowBytes*(n-s.Shared()) {
			t.Fatalf("chain %v: MemoryBytes %d for %d own rows", ks, s.MemoryBytes(), n-s.Shared())
		}
		for p := 0; p <= n; p++ {
			v := s.Prefix(p)
			if v.MemoryBytes() != 0 || !bytes.Equal(wire(v), wire(flatPrompt.Prefix(p))) {
				t.Fatalf("chain %v: Prefix(%d) holds %d bytes or encodes differently", ks, p, v.MemoryBytes())
			}
		}
		m.Restore(s)
		if !bytes.Equal(wire(checkpoint()), wire(flatPrompt)) {
			t.Fatalf("chain %v: Restore loaded other KV bits", ks)
		}

		// A prefill borrowing the chain's first r rows, then decoding.
		m.BeginPrefill(n)
		st := m.State()
		if reserve%2 == 1 {
			st.Reserve(min(n+reserve%9, cfg.MaxSeq))
		}
		st.ResumePrefix(s.Prefix(r))
		var tok int
		for pos := r; pos < n; pos += chunk {
			tok, _ = m.PrefillChunk(prompt[pos:min(pos+chunk, n)])
		}
		got, shared := []int{tok}, r
		for i := range g {
			if i == cow%8 {
				st.KVSlabs(int(b[3]) % cfg.Blocks)
				shared = 0
			}
			if i == grow%8 {
				st.Reserve(min(st.SeqLen()+1+grow%5, cfg.MaxSeq))
			}
			got = append(got, m.DecodeStep(got[len(got)-1]))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("borrowing %d rows of chain %v: tokens %v, want %v", r, ks, got, want)
		}
		if own, pitch := st.KVOwn(); own != n+g-shared || pitch < own {
			t.Fatalf("borrowing %d rows: KVOwn %d rows at pitch %d, want %d rows", shared, own, pitch, n+g-shared)
		}
		var view Snapshot
		st.View(&view)
		copied := checkpoint()
		if !bytes.Equal(wire(&view), wire(flat)) || !bytes.Equal(wire(copied), wire(flat)) || copied.MemoryBytes() != flat.MemoryBytes() {
			t.Fatalf("borrowing %d rows of chain %v: View or Checkpoint differs from the flat snapshot", r, ks)
		}
		m2.Restore(&view)
		var restored Snapshot
		m2.Checkpoint(&restored)
		if !bytes.Equal(wire(&restored), wire(flat)) {
			t.Fatalf("borrowing %d rows of chain %v: Restore of the View loaded other KV bits", r, ks)
		}
	})
}
