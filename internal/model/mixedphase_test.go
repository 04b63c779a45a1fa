package model_test

// The mixed-phase fused-forward battery: ForwardBatch calls that co-batch
// mid-prefill chunk ranges with decoding rows — protected sessions carrying
// per-range FT2 hooks, a chaos-corrupted neighbor in the same batch — must
// reproduce each session's serial oracle bit-for-bit, at any attention
// worker count. The package is model_test (not model) so real core.FT2
// controllers can ride on the items like the serving scheduler's do.

import (
	"reflect"
	"runtime"
	"testing"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

func mixedCfg(f model.Family) model.Config {
	c := model.Config{
		Name: "mixed-test", Family: f,
		Vocab: 64, Hidden: 32, Heads: 4, FFN: 64, Blocks: 2, MaxSeq: 64,
		LogitScale: 4,
	}
	switch f {
	case model.FamilyOPT:
		c.Activation = tensor.ActReLU
		c.AttnBias = true
	case model.FamilyGPTJ:
		c.Activation = tensor.ActGELU
	case model.FamilyLlama:
		c.Activation = tensor.ActSiLU
	}
	return c
}

// mixedSession is one lane of the co-batched schedule.
type mixedSession struct {
	prompt  []int
	st      *model.DecodeState
	ft      *core.FT2 // non-nil: protected (FT2 hook rides on every range)
	corrupt bool      // chaos neighbor: a hook flips its FC1 rows
	chunk   int       // >0: enter the batch mid-prefill in chunks this size
	pos     int       // prefill cursor (tokens already fed)
	lastTok int
	got     []int
	fired   int // corruption-hook invocations
}

// runMixedPhase drives the sessions over one shared replica until every
// session has emitted gen tokens, fusing each step's decode rows and
// prefill chunks into a single ForwardBatch call.
func runMixedPhase(t *testing.T, m *model.Model, sessions []*mixedSession, gen int) {
	t.Helper()
	var items []model.BatchItem
	var idx []int
	var toks []int
	for steps := 0; ; steps++ {
		if steps > 10*gen {
			t.Fatal("mixed-phase schedule did not converge")
		}
		items, idx = items[:0], idx[:0]
		for i, s := range sessions {
			if len(s.got) >= gen {
				continue
			}
			it := model.BatchItem{State: s.st}
			if s.pos < len(s.prompt) {
				n := len(s.prompt) - s.pos
				if s.chunk > 0 && n > s.chunk {
					n = s.chunk
				}
				it.Prefill = s.prompt[s.pos : s.pos+n]
			} else {
				it.Tok = s.lastTok
			}
			if s.ft != nil {
				it.Hooks = append(it.Hooks, s.ft.Hook())
			}
			if s.corrupt {
				sess := s
				it.Hooks = append(it.Hooks, func(ctx model.HookCtx, out *tensor.Tensor) {
					// FC1 on OPT/GPT-J, the gate projection on Llama.
					if (ctx.Layer.Kind == model.FC1 || ctx.Layer.Kind == model.GateProj) && ctx.Site == model.SiteLinearOut {
						sess.fired++
						out.Data[0] = 39 // corrupt this session's range only
					}
				})
			}
			items = append(items, it)
			idx = append(idx, i)
		}
		if len(items) == 0 {
			return
		}
		toks = m.ForwardBatch(items, toks[:0])
		for n, i := range idx {
			s := sessions[i]
			if chunk := len(items[n].Prefill); chunk > 0 {
				s.pos += chunk
			}
			if tok := toks[n]; tok >= 0 {
				s.lastTok = tok
				s.got = append(s.got, tok)
			}
		}
	}
}

// openPrefillState returns a fresh state with a chunked prefill of n prompt
// tokens open on it, ready to be fed through ForwardBatch prefill ranges.
func openPrefillState(m *model.Model, n int) *model.DecodeState {
	st := m.NewDecodeState()
	prev := m.SwapState(st)
	m.BeginPrefill(n)
	m.SwapState(prev)
	return st
}

// openDecoding runs the serial prefill (protected when s.ft is set, exactly
// like a scheduler slot would) so the session enters the batch decoding.
func openDecoding(m *model.Model, s *mixedSession) {
	s.st = m.NewDecodeState()
	prev := m.SwapState(s.st)
	if s.ft != nil {
		s.ft.Install()
	}
	tok := m.Prefill(s.prompt)
	if s.ft != nil {
		m.ClearHooks()
	}
	m.SwapState(prev)
	s.pos = len(s.prompt)
	s.lastTok = tok
	s.got = append(s.got, tok)
}

// TestForwardBatchMixedPhaseBitwise is the battery: for every family, a
// fused schedule of two decoding sessions (one FT2-protected, one clean), a
// chaos-corrupted neighbor, and a session prefilling its prompt in chunks
// co-batched with the decode rows — every uncorrupted session must emit
// exactly the tokens a fresh serial replica produces, and the corrupted
// neighbor must not leak into any of them. The same schedule repeats with
// the attention fan-out forced onto pool workers (SetNumCPUOverride +
// GOMAXPROCS), which must not change a bit; run it under -race to check the
// per-(session×head) disjointness claim.
func TestForwardBatchMixedPhaseBitwise(t *testing.T) {
	const gen = 8
	for _, fam := range []model.Family{model.FamilyOPT, model.FamilyGPTJ, model.FamilyLlama} {
		for _, workers := range []int{1, 4} {
			name := fam.String() + "/serial-attn"
			if workers > 1 {
				name = fam.String() + "/fanout-attn"
			}
			t.Run(name, func(t *testing.T) {
				if workers > 1 {
					prevP := runtime.GOMAXPROCS(workers)
					prevC := tensor.SetNumCPUOverride(workers)
					defer func() {
						runtime.GOMAXPROCS(prevP)
						tensor.SetNumCPUOverride(prevC)
					}()
				}
				cfg := mixedCfg(fam)
				m := model.MustNew(cfg, 17, numerics.FP16)

				sessions := []*mixedSession{
					{prompt: []int{5, 9, 13}},                             // protected decoder
					{prompt: []int{7, 11}},                                // clean decoder
					{prompt: []int{4, 6, 8, 10, 12, 14, 16, 18, 3, 2, 1}}, // chunked prefill, co-batched
					{prompt: []int{20, 21, 22, 23, 24}, corrupt: true},    // chaos neighbor
				}
				sessions[0].ft = core.Attach(m, core.Defaults())
				sessions[2].chunk = 3

				// Serial oracles on fresh replicas: protected sessions
				// against a protected serial Generate, clean ones against
				// the bare model.
				want := make([][]int, len(sessions))
				for i, s := range sessions {
					if s.corrupt {
						continue
					}
					om := model.MustNew(cfg, 17, numerics.FP16)
					if i == 0 {
						want[i] = core.Attach(om, core.Defaults()).Generate(s.prompt, gen)
					} else {
						want[i] = om.Generate(s.prompt, gen)
					}
				}

				openDecoding(m, sessions[0])
				openDecoding(m, sessions[1])
				sessions[2].st = openPrefillState(m, len(sessions[2].prompt))
				openDecoding(m, sessions[3])

				runMixedPhase(t, m, sessions, gen)

				for i, s := range sessions {
					if s.corrupt {
						if s.fired == 0 {
							t.Fatal("corruption hook never fired")
						}
						continue
					}
					if !reflect.DeepEqual(s.got, want[i]) {
						t.Errorf("session %d: fused %v != serial oracle %v", i, s.got, want[i])
					}
				}
				if len(sessions[2].got) != gen {
					t.Fatalf("chunked-prefill session emitted %d tokens, want %d", len(sessions[2].got), gen)
				}
			})
		}
	}
}

// TestForwardBatchDecodeAllocFree pins the steady-state fused decode to
// zero allocations: after warm-up, a pure-decode ForwardBatch call must not
// touch the heap (the serving scheduler calls it per token).
func TestForwardBatchDecodeAllocFree(t *testing.T) {
	cfg := mixedCfg(model.FamilyLlama)
	m := model.MustNew(cfg, 23, numerics.FP16)
	sessions := []*mixedSession{
		{prompt: []int{5, 9, 13}},
		{prompt: []int{7, 11}},
		{prompt: []int{20, 21, 22}},
	}
	items := make([]model.BatchItem, len(sessions))
	for i, s := range sessions {
		openDecoding(m, s)
		items[i] = model.BatchItem{State: s.st, Tok: s.lastTok}
	}
	var toks []int
	step := func() {
		toks = m.ForwardBatch(items, toks[:0])
		for i, tok := range toks {
			items[i].Tok = tok
		}
	}
	for i := 0; i < 4; i++ {
		step() // warm the scratch arenas
	}
	if avg := testing.AllocsPerRun(10, step); avg > 0 {
		t.Fatalf("steady-state fused decode allocates %.1f objects/call, want 0", avg)
	}
}
