package model

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"ft2/internal/numerics"
)

// chunkedPrefill drives BeginPrefill/PrefillChunk over the prompt in chunks
// of the given size and returns the first token.
func chunkedPrefill(m *Model, prompt []int, chunk int) int {
	m.BeginPrefill(len(prompt))
	for pos := 0; pos < len(prompt); {
		n := chunk
		if rem := len(prompt) - pos; n > rem {
			n = rem
		}
		tok, done := m.PrefillChunk(prompt[pos : pos+n])
		pos += n
		if done {
			if pos != len(prompt) {
				panic("done before the final chunk")
			}
			return tok
		}
	}
	panic("prefill never completed")
}

// kvEqual compares two snapshots' KV payloads bit-for-bit.
func kvEqual(a, b *Snapshot) bool {
	if a.rows != b.rows || len(a.k) != len(b.k) {
		return false
	}
	for blk := range a.k {
		for i := range a.k[blk] {
			if a.k[blk][i] != b.k[blk][i] || a.v[blk][i] != b.v[blk][i] {
				return false
			}
		}
	}
	return true
}

// TestPrefillChunkBitIdentical: a chunked prefill must leave state — first
// token, KV bits, and the whole greedy continuation — identical to the
// single-pass Prefill, for every family and chunk size including 1.
func TestPrefillChunkBitIdentical(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			m := MustNew(cfg, 11, numerics.FP16)
			prompt := []int{5, 9, 21, 33, 2, 40, 7}
			const n = 8
			want := m.Generate(prompt, n)
			var wantSnap Snapshot
			m.Prefill(prompt)
			m.Checkpoint(&wantSnap)

			for _, chunk := range []int{1, 2, 3, 5, len(prompt)} {
				got := make([]int, 0, n)
				tok := chunkedPrefill(m, prompt, chunk)
				var gotSnap Snapshot
				m.Checkpoint(&gotSnap)
				if !kvEqual(&wantSnap, &gotSnap) {
					t.Fatalf("chunk=%d: prefill KV differs from single-pass", chunk)
				}
				got = append(got, tok)
				for s := 1; s < n; s++ {
					tok = m.DecodeStep(tok)
					got = append(got, tok)
				}
				if !equalInts(want, got) {
					t.Errorf("chunk=%d: got %v, want %v", chunk, got, want)
				}
			}
		})
	}
}

// onEveryKernelLeg re-runs the calling test in child processes under each
// GODEBUG that moves an amd64 host onto another kernel leg — cpu.fma=off the
// SSE tier, cpu.avx512f=off the FMA tier's YMM sweep (see
// TestGoldenDigestsWithoutMathFMA) — while the test itself runs the host's
// leg; make test-386 runs the portable one. A child does not recurse.
func onEveryKernelLeg(t *testing.T) {
	if runtime.GOARCH != "amd64" || strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		return
	}
	name := t.Name()
	for _, godebug := range []string{"cpu.fma=off", "cpu.avx512f=off"} {
		cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1")
		cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("GODEBUG=%s: %v\n%s", godebug, err, out)
		}
	}
}

// coldWire prefills prompt on m and decodes n-1 tokens, returning the tokens
// and the wire bytes of the Checkpoint after the prefill and after each step.
func coldWire(m *Model, prompt []int, n int) ([]int, [][]byte) {
	var toks []int
	var wires [][]byte
	var s Snapshot
	for tok := m.Prefill(prompt); ; tok = m.DecodeStep(tok) {
		toks = append(toks, tok)
		m.Checkpoint(&s)
		wires = append(wires, AppendSnapshot(nil, &s))
		if len(toks) == n {
			return toks, wires
		}
	}
}

// TestResumePrefillPrefixBitIdentical: a state that borrows a cached prefix
// and computes only the suffix must reproduce the cold generation bit for
// bit — its tokens, and the View-encoded bytes of its state after the
// prefill and after every decode step equal to a cold Prefill's Checkpoint —
// on every kernel leg, for cache entries that are whole or read their first
// rows through a chain of one or two Share bases, at hit depths 0, 1, mid
// and n-1, while co-batched in one ForwardBatch with a state that borrows
// nothing, and with a horizon declared too short, so its own slabs grow
// mid-decode under the borrow.
func TestResumePrefillPrefixBitIdentical(t *testing.T) {
	onEveryKernelLeg(t)
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			donor := MustNew(cfg, 7, numerics.FP16)
			prompt := []int{3, 14, 15, 9, 2, 6, 26, 5, 35, 8}
			other := []int{1, 30, 31, 7, 12}
			const n = 8
			want, wantWire := coldWire(donor, prompt, n)
			wantOther, _ := coldWire(donor, other, n)

			// Cache entries for prompt: whole, and reading rows from bases
			// whose prompts share only those tokens (as in share_test.go).
			shares := func(k, n int) []int {
				p := append([]int(nil), prompt[:k]...)
				for len(p) < n {
					p = append(p, 40+len(p))
				}
				return p
			}
			full := coldCheckpoint(donor, prompt)
			chains := []struct {
				name  string
				entry *Snapshot
			}{
				{"depth0", full},
				{"depth1", full.Share(coldCheckpoint(donor, shares(4, 6)), 4)},
				{"depth2", full.Share(coldCheckpoint(donor, shares(7, 9)).Share(coldCheckpoint(donor, shares(3, 5)), 3), 7)},
			}

			m := MustNew(cfg, 7, numerics.FP16)
			open := func(st *DecodeState, p []int, seed *Snapshot) {
				m.SwapState(st)
				m.BeginPrefill(len(p))
				if seed != nil {
					m.ResumePrefillPrefix(seed)
				}
			}
			for _, c := range chains {
				for _, rows := range []int{0, 1, len(prompt) / 2, len(prompt) - 1} {
					for _, horizon := range []int{len(prompt) + n, len(prompt) + 2} {
						name := fmt.Sprintf("%s rows=%d horizon=%d", c.name, rows, horizon)
						st, by := m.NewDecodeState(), m.NewDecodeState()
						open(by, other, nil)
						open(st, prompt, c.entry.Prefix(rows))
						st.Reserve(horizon)
						if st.PrefillPos() != rows || st.shared != rows {
							t.Fatalf("%s: PrefillPos() %d, borrowing %d rows", name, st.PrefillPos(), st.shared)
						}
						items := []BatchItem{{State: st, Prefill: prompt[rows:]}, {State: by, Prefill: other}}
						var got, gotOther []int
						for step := 0; step < n; step++ {
							toks := m.ForwardBatch(items, nil)
							got, gotOther = append(got, toks[0]), append(gotOther, toks[1])
							var view Snapshot
							m.View(st, &view)
							if !bytes.Equal(AppendSnapshot(nil, &view), wantWire[step]) {
								t.Fatalf("%s: View after step %d encodes other bytes than the cold Checkpoint", name, step)
							}
							items = []BatchItem{{State: st, Tok: toks[0]}, {State: by, Tok: toks[1]}}
						}
						if !equalInts(got, want) || !equalInts(gotOther, wantOther) {
							t.Fatalf("%s: tokens %v and %v, want %v and %v", name, got, gotOther, want, wantOther)
						}
						if own, pitch := st.KVOwn(); st.shared != rows || own != len(prompt)+n-1-rows || pitch < own {
							t.Fatalf("%s: borrowing %d rows, %d own at pitch %d", name, st.shared, own, pitch)
						}
					}
				}
			}
		})
	}
}

// TestBorrowingDecodeAllocFree: a state that borrows a cached prefix decodes
// with no allocation once its own slabs hold its horizon, and holds only the
// rows it writes.
func TestBorrowingDecodeAllocFree(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	m := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	hit := coldCheckpoint(m, prompt).Prefix(6)
	const n = 8
	st := m.NewDecodeState()
	st.Reserve(len(prompt) + n - 6) // what the state writes past a 6-row hit
	var tok int
	run := func() {
		m.SwapState(st)
		m.BeginPrefill(len(prompt))
		m.ResumePrefillPrefix(hit)
		tok, _ = m.PrefillChunk(prompt[6:])
		for s := 1; s < n; s++ {
			tok = m.DecodeStep(tok)
		}
	}
	if avg := testing.AllocsPerRun(10, run); avg != 0 {
		t.Fatalf("a borrowing prefill and decode allocate %.1f objects/run, want 0", avg)
	}
	if _, pitch := st.KVOwn(); pitch != len(prompt)+n-6 {
		t.Fatalf("own pitch %d, want the %d rows written past the borrow", pitch, len(prompt)+n-6)
	}
}

// TestSnapshotPrefixBounds: Prefix must reject out-of-range truncations and
// allow the full [0, Rows()] range.
func TestSnapshotPrefixBounds(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	m.Prefill([]int{1, 2, 3, 4})
	var snap Snapshot
	m.Checkpoint(&snap)

	if v := snap.Prefix(0); v.Rows() != 0 {
		t.Fatalf("Prefix(0).Rows() = %d", v.Rows())
	}
	if v := snap.Prefix(snap.Rows()); v.Rows() != snap.Rows() {
		t.Fatalf("Prefix(Rows()).Rows() = %d", v.Rows())
	}
	for _, bad := range []int{-1, snap.Rows() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prefix(%d) did not panic", bad)
				}
			}()
			snap.Prefix(bad)
		}()
	}
}

// TestRestoreRejectsPrefixView: a prefix view has no resume point, so a full
// Restore of one must panic instead of resuming a bogus generation.
func TestRestoreRejectsPrefixView(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	m.Prefill([]int{1, 2, 3, 4})
	var snap Snapshot
	m.Checkpoint(&snap)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore of a prefix view did not panic")
		}
	}()
	m.Restore(snap.Prefix(2))
}

// TestResumePrefillPrefixRejectsMismatch: architecture mismatches — here a
// model with a smaller MaxSeq than the snapshot's — must panic loudly.
func TestResumePrefillPrefixRejectsMismatch(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	donor := MustNew(cfg, 3, numerics.FP16)
	donor.Prefill([]int{1, 2, 3, 4})
	var snap Snapshot
	donor.Checkpoint(&snap)

	small := cfg
	small.MaxSeq = cfg.MaxSeq / 2
	m := MustNew(small, 3, numerics.FP16)
	m.BeginPrefill(8)
	defer func() {
		if recover() == nil {
			t.Fatal("ResumePrefillPrefix into a smaller-MaxSeq model did not panic")
		}
	}()
	m.ResumePrefillPrefix(snap.Prefix(2))
}

// TestResumePrefillPrefixRejectsShortPrompt: a prompt no longer than the
// cached prefix leaves no suffix row for the readout, so seeding must panic
// (the serving cache caps lookups at len(prompt)-1 to avoid this).
func TestResumePrefillPrefixRejectsShortPrompt(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	m.Prefill([]int{1, 2, 3, 4, 5, 6})
	var snap Snapshot
	m.Checkpoint(&snap)

	for _, promptLen := range []int{3, 6} { // strictly shorter, and exactly equal
		m.BeginPrefill(promptLen)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("promptLen=%d: prefix of %d rows accepted", promptLen, snap.Rows())
				}
			}()
			m.ResumePrefillPrefix(snap.Prefix(snap.Rows()))
		}()
	}
}

// TestMidPrefillGuards: a state mid-way through a chunked prefill must be
// unusable for decode, checkpointing, and re-seeding, and the chunk cursor
// must reject overruns and empty chunks.
func TestMidPrefillGuards(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4, 5, 6}
	m.BeginPrefill(len(prompt))
	if _, done := m.PrefillChunk(prompt[:2]); done {
		t.Fatal("partial chunk reported done")
	}
	if m.Started() {
		t.Fatal("Started() true mid-prefill")
	}
	if !m.st.Prefilling() {
		t.Fatal("Prefilling() false mid-prefill")
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s mid-prefill did not panic", name)
			}
		}()
		f()
	}
	mustPanic("DecodeStep", func() { m.DecodeStep(1) })
	mustPanic("Checkpoint", func() { m.Checkpoint(&Snapshot{}) })
	mustPanic("ResumePrefillPrefix", func() { m.ResumePrefillPrefix(&Snapshot{}) })
	mustPanic("overrun chunk", func() { m.PrefillChunk(prompt[1:]) })
	mustPanic("empty chunk", func() { m.PrefillChunk(nil) })

	// Finish cleanly: the state must come out identical to a cold prefill.
	tok, done := m.PrefillChunk(prompt[2:])
	if !done {
		t.Fatal("final chunk did not complete")
	}
	if want := m.Prefill(prompt); want != tok {
		t.Fatalf("recovered chunked prefill token %d, cold %d", tok, want)
	}

	mustPanic("PrefillChunk after completion", func() { m.PrefillChunk(prompt[:1]) })
}

// TestChunkedPrefillAllocFree: the chunked path must stay off the allocator
// after warm-up just like the single-pass one — it runs inside serve slices.
func TestChunkedPrefillAllocFree(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4, 5, 6, 7, 8}
	chunkedPrefill(m, prompt, 3) // warm up scratch, rope table, KV slabs

	avg := testing.AllocsPerRun(10, func() {
		tok := chunkedPrefill(m, prompt, 3)
		for s := 1; s < 6; s++ {
			tok = m.DecodeStep(tok)
		}
	})
	if avg != 0 {
		t.Fatalf("chunked prefill allocates %.1f objects/run after warm-up, want 0", avg)
	}
}
