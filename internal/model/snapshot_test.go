package model

import (
	"bytes"
	"runtime"
	"testing"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// TestPrefillDecodeStepMatchesGenerate: the resumable API must be the same
// computation as Generate, token for token.
func TestPrefillDecodeStepMatchesGenerate(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			m := MustNew(cfg, 11, numerics.FP16)
			prompt := []int{5, 9, 21, 33}
			const n = 12
			want := m.Generate(prompt, n)

			got := make([]int, 0, n)
			tok := m.Prefill(prompt)
			got = append(got, tok)
			for s := 1; s < n; s++ {
				tok = m.DecodeStep(tok)
				got = append(got, tok)
			}
			if !equalInts(want, got) {
				t.Fatalf("Prefill/DecodeStep = %v, Generate = %v", got, want)
			}
		})
	}
}

// TestCheckpointIntoViewLeavesStateIntact: a Snapshot last filled by View
// holds the live state's slabs, so a Checkpoint into it must copy the rows
// out instead of compacting them in place under the state. Decoding on after
// the two calls must match an uncheckpointed run token for token and row for
// row, at a pitch just above the prompt and at a wide one, and the
// checkpoint must resume the same continuation in a replica.
func TestCheckpointIntoViewLeavesStateIntact(t *testing.T) {
	for _, pitch := range []int{8, 64} {
		for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
			cfg := smallCfg(f)
			m := MustNew(cfg, 7, numerics.FP16)
			prompt := []int{3, 14, 15, 9, 2, 6}
			const n = 10
			want := m.Generate(prompt, n)
			var wantEnd Snapshot
			m.Checkpoint(&wantEnd)

			tok := m.Prefill(prompt)
			m.st.Reserve(pitch)
			var s Snapshot
			m.st.View(&s)
			m.Checkpoint(&s)
			got := []int{tok}
			for len(got) < n {
				tok = m.DecodeStep(tok)
				got = append(got, tok)
			}
			if !equalInts(got, want) {
				t.Fatalf("%s pitch %d: tokens after View+Checkpoint = %v, want %v", f, pitch, got, want)
			}
			var gotEnd Snapshot
			m.Checkpoint(&gotEnd)
			if !bytes.Equal(AppendSnapshot(nil, &gotEnd), AppendSnapshot(nil, &wantEnd)) {
				t.Fatalf("%s pitch %d: final KV rows differ from the uncheckpointed run", f, pitch)
			}

			r := MustNew(cfg, 7, numerics.FP16)
			tok = r.Restore(&s)
			for step := 1; step < n; step++ {
				tok = r.DecodeStep(tok)
				if tok != want[step] {
					t.Fatalf("%s pitch %d: restored step %d = %d, want %d", f, pitch, step, tok, want[step])
				}
			}
		}
	}
}

// TestSnapshotForkBitwise: restoring a mid-generation snapshot into a fresh
// replica must reproduce the remaining tokens bit-identically, for
// checkpoints at the first, a middle, and the last decode step.
func TestSnapshotForkBitwise(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			m := MustNew(cfg, 7, numerics.FP16)
			prompt := []int{3, 14, 15, 9, 2, 6}
			const n = 10
			want := m.Generate(prompt, n)

			// Re-run, snapshotting before steps 1, n/2 and n-1.
			snaps := map[int]*Snapshot{1: {}, n / 2: {}, n - 1: {}}
			tok := m.Prefill(prompt)
			for s := 1; s < n; s++ {
				if snap := snaps[s]; snap != nil {
					m.Checkpoint(snap)
					if snap.NextStep() != s {
						t.Fatalf("NextStep() = %d, want %d", snap.NextStep(), s)
					}
				}
				tok = m.DecodeStep(tok)
			}

			replica := MustNew(cfg, 7, numerics.FP16)
			for s, snap := range snaps {
				got := append([]int(nil), want[:s]...)
				tok := replica.Restore(snap)
				if tok != want[s-1] {
					t.Fatalf("step %d: Restore returned token %d, want %d", s, tok, want[s-1])
				}
				for i := s; i < n; i++ {
					tok = replica.DecodeStep(tok)
					got = append(got, tok)
				}
				if !equalInts(want, got) {
					t.Errorf("fork at step %d: got %v, want %v", s, got, want)
				}
			}
		})
	}
}

// TestSnapshotSurvivesSourceMutation: a snapshot is a deep copy — decoding
// past the checkpoint on the source model must not corrupt it.
func TestSnapshotSurvivesSourceMutation(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	m := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4}
	const n = 8
	want := m.Generate(prompt, n)

	var snap Snapshot
	tok := m.Prefill(prompt)
	for s := 1; s < n; s++ {
		if s == 2 {
			m.Checkpoint(&snap)
		}
		tok = m.DecodeStep(tok)
	}

	// The source has long since advanced; restore into the same model.
	got := append([]int(nil), want[:2]...)
	tok = m.Restore(&snap)
	for s := 2; s < n; s++ {
		tok = m.DecodeStep(tok)
		got = append(got, tok)
	}
	if !equalInts(want, got) {
		t.Fatalf("restore after source mutation: got %v, want %v", got, want)
	}
}

// TestSnapshotHooksObserveForkedSteps: a hook registered on the restored
// replica sees exactly the suffix steps with the right step numbers.
func TestSnapshotHooksObserveForkedSteps(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 5, numerics.FP16)
	prompt := []int{4, 8, 15}
	const n = 6
	var snap Snapshot
	tok := m.Prefill(prompt)
	for s := 1; s < n; s++ {
		if s == 3 {
			m.Checkpoint(&snap)
		}
		tok = m.DecodeStep(tok)
	}

	steps := map[int]bool{}
	m.RegisterHook(func(ctx HookCtx, _ *tensor.Tensor) {
		steps[ctx.Step] = true
		if ctx.Step == 0 {
			t.Error("forked continuation must never report step 0")
		}
	})
	defer m.ClearHooks()
	tok = m.Restore(&snap)
	for s := 3; s < n; s++ {
		tok = m.DecodeStep(tok)
	}
	for s := 3; s < n; s++ {
		if !steps[s] {
			t.Errorf("hook never saw step %d", s)
		}
	}
	if steps[0] || steps[1] || steps[2] {
		t.Errorf("hook saw pre-checkpoint steps: %v", steps)
	}
}

// TestSnapshotMemoryBytes: the KV payload must match the documented bound,
// Blocks × 2 × rows × Hidden float32s.
func TestSnapshotMemoryBytes(t *testing.T) {
	cfg := smallCfg(FamilyGPTJ)
	m := MustNew(cfg, 9, numerics.FP16)
	prompt := []int{1, 2, 3, 4, 5}
	m.Prefill(prompt)
	tok := m.DecodeStep(m.st.lastTok)
	_ = tok

	var snap Snapshot
	m.Checkpoint(&snap)
	rows := len(prompt) + 1 // prefill + one decode step
	if snap.Rows() != rows {
		t.Fatalf("Rows() = %d, want %d", snap.Rows(), rows)
	}
	want := cfg.Blocks * 2 * rows * cfg.Hidden * 4
	if got := snap.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes() = %d, want %d", got, want)
	}
}

// TestSnapshotRejectsWrongArchitecture: restoring into a different shape
// must fail loudly rather than corrupt the KV slabs.
func TestSnapshotRejectsWrongArchitecture(t *testing.T) {
	m := MustNew(smallCfg(FamilyLlama), 3, numerics.FP16)
	m.Prefill([]int{1, 2, 3})
	m.DecodeStep(m.st.lastTok)
	var snap Snapshot
	m.Checkpoint(&snap)

	other := smallCfg(FamilyLlama)
	other.Blocks = 3
	m2 := MustNew(other, 3, numerics.FP16)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore into a mismatched architecture did not panic")
		}
	}()
	m2.Restore(&snap)
}

// TestGenerateIntoAllocFree: with a caller-reused destination, steady-state
// generation must not touch the allocator at all.
func TestGenerateIntoAllocFree(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	m := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4}
	buf := make([]int, 0, 8)
	m.GenerateInto(buf, prompt, 8) // warm up scratch, rope table, KV slabs

	avg := testing.AllocsPerRun(10, func() {
		m.GenerateInto(buf, prompt, 8)
		m.GenerateInto(buf, prompt[:2], 3) // a shorter horizon fits the pitch
	})
	if avg != 0 {
		t.Fatalf("GenerateInto allocates %.1f objects/run after warm-up, want 0", avg)
	}
	if _, _, _, pitch := m.State().KVSlabs(0); pitch != len(prompt)+8 {
		t.Fatalf("pitch %d after horizons of %d and 5 rows, want the longer", pitch, len(prompt)+8)
	}
}

// TestDecodeGrowsUnreservedStateGeometrically pins the growth of a state
// reserved only for its prompt: decoding it to MaxSeq doubles the pitch — 4,
// 8, 16, … MaxSeq — with one allocation per move and none on any other step,
// so the slabs never hold more than max(prompt, 2 × rows). The pitch is
// layout: every token, and the final Checkpoint bytes, equal those of a run
// reserved to MaxSeq up front.
func TestDecodeGrowsUnreservedStateGeometrically(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	m := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4}
	ref, st := m.NewDecodeState(), m.NewDecodeState()
	m.SwapState(ref)
	m.BeginPrefill(len(prompt))
	ref.Reserve(cfg.MaxSeq)
	refTok, _ := m.PrefillChunk(prompt)
	m.SwapState(st)
	tok := m.Prefill(prompt)
	if tok != refTok {
		t.Fatalf("first token %d, reserved run %d", tok, refTok)
	}
	_, pitch := st.KVOwn()
	pitches := []int{pitch}
	var ms runtime.MemStats
	for st.SeqLen() < cfg.MaxSeq {
		m.SwapState(ref)
		refTok = m.DecodeStep(refTok)
		m.SwapState(st)
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		tok = m.DecodeStep(tok)
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - before
		rows, now := st.KVOwn()
		if now != pitch {
			if want := min(2*pitch, cfg.MaxSeq); now != want {
				t.Fatalf("row %d: pitch %d grew to %d, want %d", rows, pitch, now, want)
			}
			pitch = now
			pitches = append(pitches, pitch)
			if allocs != 1 {
				t.Fatalf("row %d: the growth to pitch %d made %d allocations, want 1", rows, pitch, allocs)
			}
		} else if allocs != 0 {
			t.Fatalf("row %d: a step within pitch %d made %d allocations, want 0", rows, pitch, allocs)
		}
		if pitch > max(len(prompt), 2*rows) {
			t.Fatalf("%d rows held at pitch %d, more than twice the rows", rows, pitch)
		}
		if tok != refTok {
			t.Fatalf("row %d: token %d, reserved run %d", rows, tok, refTok)
		}
	}
	if want := []int{4, 8, 16, 32, cfg.MaxSeq}; !equalInts(pitches, want) {
		t.Fatalf("pitches %v, want %v", pitches, want)
	}
	var a, b Snapshot
	st.Checkpoint(&a)
	ref.Checkpoint(&b)
	if !bytes.Equal(AppendSnapshot(nil, &a), AppendSnapshot(nil, &b)) {
		t.Fatal("the grown state's Checkpoint encodes differently from the reserved run's")
	}
}

// TestRestoreAllocFree: a restore is a handful of copies into preallocated
// slabs — no allocation.
func TestRestoreAllocFree(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	m := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{1, 2, 3, 4}
	tok := m.Prefill(prompt)
	m.DecodeStep(tok)
	var snap Snapshot
	m.Checkpoint(&snap)

	avg := testing.AllocsPerRun(10, func() {
		tok := m.Restore(&snap)
		for s := snap.NextStep(); s < 8; s++ {
			tok = m.DecodeStep(tok)
		}
	})
	if avg != 0 {
		t.Fatalf("Restore + suffix decode allocates %.1f objects/run, want 0", avg)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
