package model

import (
	"reflect"
	"testing"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// prefillSession starts a fresh session on m (its own DecodeState) and
// returns the item primed with the prefill token.
func prefillSession(m *Model, prompt []int) (BatchItem, int) {
	st := m.NewDecodeState()
	prev := m.SwapState(st)
	tok := m.Prefill(prompt)
	m.SwapState(prev)
	return BatchItem{State: st, Tok: tok}, tok
}

// TestForwardBatchDecodeBitwise pins the fused batched decode to the serial
// oracle: for every family, sessions with different prompt lengths advanced
// together through ForwardBatch must emit exactly the token sequences a
// fresh replica produces with Generate (prefill + serial DecodeSteps).
func TestForwardBatchDecodeBitwise(t *testing.T) {
	const gen = 10
	prompts := [][]int{
		{5, 9, 13},
		{7},
		{4, 6, 8, 10, 12, 14, 16},
		{20, 21},
	}
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := smallCfg(f)
			oracle := MustNew(cfg, 11, numerics.FP16)
			m := MustNew(cfg, 11, numerics.FP16)

			want := make([][]int, len(prompts))
			for i, p := range prompts {
				want[i] = oracle.Generate(p, gen)
			}

			items := make([]BatchItem, len(prompts))
			got := make([][]int, len(prompts))
			for i, p := range prompts {
				it, tok := prefillSession(m, p)
				items[i] = it
				got[i] = append(got[i], tok)
			}
			var toks []int
			for s := 1; s < gen; s++ {
				toks = m.ForwardBatch(items, toks[:0])
				for i, tok := range toks {
					got[i] = append(got[i], tok)
					items[i].Tok = tok
				}
			}
			for i := range prompts {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Errorf("session %d (prompt len %d): batched %v != serial %v",
						i, len(prompts[i]), got[i], want[i])
				}
			}
		})
	}
}

// TestForwardBatchSingleItem pins the degenerate B=1 batch to DecodeStep
// on the same replica, including the state evolution (SeqLen/LastToken).
func TestForwardBatchSingleItem(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	serial := MustNew(cfg, 3, numerics.FP16)
	batched := MustNew(cfg, 3, numerics.FP16)
	prompt := []int{9, 4, 31}

	tokS := serial.Prefill(prompt)
	it, tokB := prefillSession(batched, prompt)
	if tokS != tokB {
		t.Fatalf("prefill: %d != %d", tokS, tokB)
	}
	var toks []int
	for s := 1; s < 8; s++ {
		tokS = serial.DecodeStep(tokS)
		it.Tok = tokB
		toks = batched.ForwardBatch([]BatchItem{it}, toks[:0])
		tokB = toks[0]
		if tokS != tokB {
			t.Fatalf("step %d: serial %d != batched %d", s, tokS, tokB)
		}
		if got, want := it.State.SeqLen(), serial.SeqLen(); got != want {
			t.Fatalf("step %d: SeqLen %d != %d", s, got, want)
		}
		if got := it.State.LastToken(); got != tokS {
			t.Fatalf("step %d: LastToken %d != %d", s, got, tokS)
		}
	}
}

// TestForwardBatchRowHooks checks per-session hook attribution: a hook
// attached to one batch item observes one-row tensors with that session's
// step counter, its mutations corrupt only that session's continuation, and
// hook-free co-batched sessions still match the serial oracle bitwise.
func TestForwardBatchRowHooks(t *testing.T) {
	const gen = 8
	cfg := smallCfg(FamilyGPTJ)
	oracle := MustNew(cfg, 5, numerics.FP16)
	m := MustNew(cfg, 5, numerics.FP16)
	prompts := [][]int{{6, 7, 8}, {12, 13, 14, 15}}

	clean := oracle.Generate(prompts[1], gen)

	items := make([]BatchItem, 2)
	for i, p := range prompts {
		items[i], _ = prefillSession(m, p)
	}
	var sawRows, sawSteps []int
	items[0].Hooks = []Hook{func(ctx HookCtx, out *tensor.Tensor) {
		sawRows = append(sawRows, out.Rows)
		if ctx.Layer.Kind == FC1 && ctx.Site == SiteLinearOut {
			sawSteps = append(sawSteps, ctx.Step)
			out.Data[0] = 40 // corrupt session 0 only
		}
	}}

	got := [][]int{{items[0].Tok}, {items[1].Tok}}
	var toks []int
	for s := 1; s < gen; s++ {
		toks = m.ForwardBatch(items, toks[:0])
		for i, tok := range toks {
			got[i] = append(got[i], tok)
			items[i].Tok = tok
		}
	}
	if !reflect.DeepEqual(got[1], clean) {
		t.Errorf("hook-free session diverged: %v != %v", got[1], clean)
	}
	for _, r := range sawRows {
		if r != 1 {
			t.Fatalf("hook saw %d-row tensor; want per-session 1-row views", r)
		}
	}
	for i, s := range sawSteps {
		// FC1 fires once per block per step; steps advance 1..gen-1.
		if want := 1 + i/cfg.Blocks; s != want {
			t.Fatalf("hook step %d: got %d want %d", i, s, want)
		}
	}
	if len(sawSteps) != (gen-1)*cfg.Blocks {
		t.Fatalf("hook fired %d times; want %d", len(sawSteps), (gen-1)*cfg.Blocks)
	}
}

// TestForwardBatchModelHooksPanic pins the guard: model-level hooks
// cannot be attributed to a session, so batched decode must refuse them.
func TestForwardBatchModelHooksPanic(t *testing.T) {
	cfg := smallCfg(FamilyOPT)
	m := MustNew(cfg, 2, numerics.FP16)
	it, _ := prefillSession(m, []int{5, 6})
	m.RegisterHook(func(HookCtx, *tensor.Tensor) {})
	defer func() {
		if recover() == nil {
			t.Fatal("ForwardBatch with model-level hooks did not panic")
		}
	}()
	m.ForwardBatch([]BatchItem{it}, nil)
}

// TestForwardBatchRejectsWithoutMutating pins validate-before-mutate: when
// any item of a batch is rejected, no item — the valid ones ahead of it
// included — has its step, sequence length or prefill cursor advanced, and
// the same items then run cleanly to the tokens of an untouched twin.
func TestForwardBatchRejectsWithoutMutating(t *testing.T) {
	cfg := smallCfg(FamilyLlama)
	other := cfg
	other.Blocks = 3
	foreign := MustNew(other, 9, numerics.FP16).NewDecodeState()

	// build returns two valid items — a decoding session and an open chunked
	// prefill — on a fresh replica.
	prompt := []int{9, 8, 7, 6, 5}
	open := func(m *Model, n int) *DecodeState {
		st := m.NewDecodeState()
		prev := m.SwapState(st)
		m.BeginPrefill(n)
		m.SwapState(prev)
		return st
	}
	build := func() (*Model, []BatchItem) {
		m := MustNew(cfg, 9, numerics.FP16)
		dec, _ := prefillSession(m, []int{4, 5, 6})
		return m, []BatchItem{dec, {State: open(m, len(prompt)), Prefill: prompt[:2]}}
	}
	atMaxSeq := func(m *Model) BatchItem {
		long := make([]int, cfg.MaxSeq)
		for i := range long {
			long[i] = 4 + i%50
		}
		it, _ := prefillSession(m, long)
		return it
	}

	bad := map[string]func(m *Model) BatchItem{
		"position at MaxSeq": atMaxSeq,
		"prefill overrun": func(m *Model) BatchItem {
			return BatchItem{State: open(m, 3), Prefill: []int{4, 5, 6, 7}}
		},
		"incompatible state": func(*Model) BatchItem { return BatchItem{State: foreign, Tok: 5} },
		"token out of vocab": func(m *Model) BatchItem {
			it, _ := prefillSession(m, []int{11, 12})
			it.Tok = cfg.Vocab
			return it
		},
		"decode before prefill": func(m *Model) BatchItem {
			return BatchItem{State: m.NewDecodeState(), Tok: 5}
		},
	}
	type cursor struct{ step, seqLen, prefillPos int }
	read := func(items []BatchItem) []cursor {
		var cs []cursor
		for _, it := range items {
			cs = append(cs, cursor{it.State.Step(), it.State.SeqLen(), it.State.PrefillPos()})
		}
		return cs
	}
	for name, mk := range bad {
		t.Run(name, func(t *testing.T) {
			m, ok := build()
			items := append(append([]BatchItem(nil), ok...), mk(m))
			before := read(items)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("ForwardBatch accepted the bad item")
					}
				}()
				m.ForwardBatch(items, nil)
			}()
			if after := read(items); !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected batch moved a cursor: %v -> %v", before, after)
			}

			twinM, twin := build()
			want := twinM.ForwardBatch(twin, nil)
			if got := m.ForwardBatch(ok, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("after the rejection the valid items decode %v, an untouched twin %v", got, want)
			}
			if !reflect.DeepEqual(read(ok), read(twin)) {
				t.Fatalf("cursors after the clean run %v != twin %v", read(ok), read(twin))
			}
		})
	}
}
