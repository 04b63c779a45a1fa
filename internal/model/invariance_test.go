package model_test

import (
	"bytes"
	"math/rand"
	"testing"

	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/numerics"
)

// lane is one session of a random schedule, instantiated once per world.
type lane struct {
	prompt []int
	chunks []int // prefill split: chunk sizes summing to len(prompt)
	join   int   // first schedule step the session takes part in
	gen    int   // tokens to emit before it leaves

	st      *model.DecodeState
	ft      *core.FT2 // non-nil: protected
	hooks   []model.Hook
	pos     int // prompt tokens fed
	chunk   int // next index into chunks
	lastTok int
	emitted int
}

func (l *lane) item() model.BatchItem {
	it := model.BatchItem{State: l.st, Tok: l.lastTok, Hooks: l.hooks}
	if l.pos < len(l.prompt) {
		it.Prefill = l.prompt[l.pos : l.pos+l.chunks[l.chunk]]
	}
	return it
}

func (l *lane) advance(it model.BatchItem, tok int) {
	if n := len(it.Prefill); n > 0 {
		l.pos += n
		l.chunk++
	}
	if tok >= 0 {
		l.lastTok = tok
		l.emitted++
	}
}

// randomLanes draws a schedule: 2–5 sessions with random prompts, random
// chunk splits, random join steps and lifetimes, protected and bare mixed.
func randomLanes(rng *rand.Rand, vocab int) []lane {
	lanes := make([]lane, 2+rng.Intn(4))
	for i := range lanes {
		l := &lanes[i]
		l.prompt = make([]int, 1+rng.Intn(12))
		for j := range l.prompt {
			l.prompt[j] = 4 + rng.Intn(vocab-4)
		}
		for left := len(l.prompt); left > 0; {
			c := 1 + rng.Intn(left)
			l.chunks = append(l.chunks, c)
			left -= c
		}
		l.join = rng.Intn(6)
		l.gen = 1 + rng.Intn(8)
	}
	return lanes
}

// instantiate gives every lane of a world its own state and, for the
// protected ones (chosen by the same coin in both worlds), its own FT2.
func instantiate(m *model.Model, lanes []lane, protected []bool) []lane {
	w := append([]lane(nil), lanes...)
	for i := range w {
		w[i].st = openPrefillState(m, len(w[i].prompt))
		if protected[i] {
			w[i].ft = core.New(m, core.Defaults())
			w[i].hooks = []model.Hook{w[i].ft.Hook()}
		}
	}
	return w
}

// leaveBytes is the canonical encoding of everything a finished session
// leaves behind: its Checkpoint (step, last token, every KV row) and, when
// protected, its FT2 bounds store and correction counters.
func leaveBytes(m *model.Model, l *lane) []byte {
	var snap model.Snapshot
	prev := m.SwapState(l.st)
	m.Checkpoint(&snap)
	m.SwapState(prev)
	out := model.AppendSnapshot(nil, &snap)
	if l.ft != nil {
		fk := l.ft.CaptureForkState()
		out = core.AppendForkState(out, &fk)
	}
	return out
}

// TestForwardBatchBatchingInvariance explores batching mechanically: a
// seeded random schedule is run once with every step's live sessions fused
// into one N-item ForwardBatch call and once as N one-item calls. Both must
// agree on every token at every step, on every state cursor, and — when a
// session leaves — on every KV bit and every FT2 bound and counter.
func TestForwardBatchBatchingInvariance(t *testing.T) {
	const seeds = 200
	for _, f := range []model.Family{model.FamilyOPT, model.FamilyGPTJ, model.FamilyLlama} {
		t.Run(f.String(), func(t *testing.T) {
			cfg := mixedCfg(f)
			fused := model.MustNew(cfg, 21, numerics.FP16)
			alone := model.MustNew(cfg, 21, numerics.FP16)
			for seed := int64(0); seed < seeds; seed++ {
				rng := rand.New(rand.NewSource(seed))
				lanes := randomLanes(rng, cfg.Vocab)
				protected := make([]bool, len(lanes))
				for i := range protected {
					protected[i] = rng.Intn(2) == 0
				}
				a, b := instantiate(fused, lanes, protected), instantiate(alone, lanes, protected)

				var itemsA, itemsB []model.BatchItem
				var live, toksA, toksB []int
				for step, left := 0, len(lanes); left > 0; step++ {
					itemsA, itemsB, live = itemsA[:0], itemsB[:0], live[:0]
					for i := range a {
						if a[i].join > step || a[i].emitted == a[i].gen {
							continue
						}
						itemsA = append(itemsA, a[i].item())
						itemsB = append(itemsB, b[i].item())
						live = append(live, i)
					}
					if len(live) == 0 {
						continue
					}
					toksA, toksB = fused.ForwardBatch(itemsA, toksA[:0]), toksB[:0]
					for n := range itemsB {
						toksB = alone.ForwardBatch(itemsB[n:n+1], toksB)
					}
					for n, i := range live {
						if toksA[n] != toksB[n] {
							t.Fatalf("seed %d step %d session %d: fused token %d != alone %d", seed, step, i, toksA[n], toksB[n])
						}
						a[i].advance(itemsA[n], toksA[n])
						b[i].advance(itemsB[n], toksB[n])
						sa, sb := a[i].st, b[i].st
						if sa.Step() != sb.Step() || sa.SeqLen() != sb.SeqLen() || sa.PrefillPos() != sb.PrefillPos() {
							t.Fatalf("seed %d step %d session %d: cursors diverge", seed, step, i)
						}
						if a[i].emitted == a[i].gen {
							left--
							if !bytes.Equal(leaveBytes(fused, &a[i]), leaveBytes(alone, &b[i])) {
								t.Fatalf("seed %d step %d session %d (protected=%v): KV / FT2 state differs between fused and alone",
									seed, step, i, protected[i])
							}
						}
					}
				}
			}
		})
	}
}
