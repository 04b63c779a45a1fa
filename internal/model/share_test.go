package model

import (
	"bytes"
	"fmt"
	"testing"

	"ft2/internal/numerics"
)

// coldCheckpoint prefills prompt on m and returns the checkpoint.
func coldCheckpoint(m *Model, prompt []int) *Snapshot {
	m.Prefill(prompt)
	var s Snapshot
	m.Checkpoint(&s)
	return &s
}

// TestSharedSnapshotChangesNoRow: a snapshot that reads its first rows from
// a base — whose prompt only shares those tokens, at several depths and
// through a chain of two bases — must be the unshared snapshot in every
// reader: the same wire bytes for itself and for every Prefix across the
// boundary, the same tokens and KV bits from a prefix-seeded prefill and from
// a Restore, while MemoryBytes counts only the rows it owns.
func TestSharedSnapshotChangesNoRow(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			donor := MustNew(cfg, 7, numerics.FP16)
			prompt := []int{3, 14, 15, 9, 2, 6, 26, 5, 35, 8}
			full := coldCheckpoint(donor, prompt)
			// other returns prompt[:k] followed by tokens prompt never has
			// there, so a base built from it holds exactly rows [0,k).
			other := func(k, n int) []int {
				p := append([]int(nil), prompt[:k]...)
				for len(p) < n {
					p = append(p, 40+len(p))
				}
				return p
			}

			shares := map[string]*Snapshot{}
			for _, k := range []int{0, 1, 4, 7, len(prompt)} {
				base := coldCheckpoint(donor, other(k, k+3))
				shares[fmt.Sprintf("k=%d", k)] = full.Share(base, k)
			}
			// A chain: rows [0,3) from a, [3,7) from b, the rest own.
			a := coldCheckpoint(donor, other(3, 5))
			b := coldCheckpoint(donor, other(7, 9)).Share(a, 3)
			shares["chain"] = full.Share(b, 7)

			wantWire := AppendSnapshot(nil, full)
			const n = 6
			want := donor.Generate(prompt, n)
			m := MustNew(cfg, 7, numerics.FP16)
			for name, s := range shares {
				if got := s.MemoryBytes(); got != cfg.Blocks*2*(len(prompt)-s.shared)*cfg.Hidden*4 {
					t.Fatalf("%s: MemoryBytes() = %d for %d own rows", name, got, len(prompt)-s.shared)
				}
				if !bytes.Equal(AppendSnapshot(nil, s), wantWire) {
					t.Fatalf("%s: wire bytes differ from the unshared snapshot", name)
				}
				for r := 0; r <= len(prompt); r++ {
					if !bytes.Equal(AppendSnapshot(nil, s.Prefix(r)), AppendSnapshot(nil, full.Prefix(r))) {
						t.Fatalf("%s: Prefix(%d) differs from the unshared one", name, r)
					}
				}
				for _, r := range []int{0, 1, 3, 6, 7, len(prompt) - 1} {
					m.BeginPrefill(len(prompt))
					m.st.ResumePrefix(s.Prefix(r))
					tok, done := m.PrefillChunk(prompt[r:])
					var got Snapshot
					m.Checkpoint(&got)
					if !done || tok != want[0] || !kvEqual(&got, full) {
						t.Fatalf("%s: prefill seeded with %d rows: token %d (want %d), KV equal %v",
							name, r, tok, want[0], kvEqual(&got, full))
					}
				}
				tok := m.Restore(s)
				var got Snapshot
				m.Checkpoint(&got)
				if !kvEqual(&got, full) {
					t.Fatalf("%s: Restore loaded other KV bits", name)
				}
				toks := []int{tok}
				for len(toks) < n {
					tok = m.DecodeStep(tok)
					toks = append(toks, tok)
				}
				if !equalInts(toks, want) {
					t.Fatalf("%s: restored generation %v, want %v", name, toks, want)
				}
			}

			// Checkpoint into a shared snapshot drops the base.
			s := shares["chain"]
			donor.Prefill(prompt)
			donor.Checkpoint(s)
			if s.base != nil || s.shared != 0 || s.MemoryBytes() != full.MemoryBytes() || !kvEqual(s, full) {
				t.Fatalf("Checkpoint into a shared snapshot kept its base")
			}
		})
	}
}
