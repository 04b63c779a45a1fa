package model

import (
	"testing"
	"unsafe"

	"ft2/internal/numerics"
	"ft2/internal/tensor"
)

// passOp is one step of a block's forward pass over the arena's activation
// buffers: it reads in and writes out (-1: nothing). hook marks a step whose
// output a forward hook sees together with its input.
type passOp struct {
	in   []int
	out  int
	hook bool
}

// blockOps is a family's block as forwardBatch runs it, in order, from the
// residual's embedding to its last update.
func blockOps(f Family) []passOp {
	lin := func(in, out int) passOp { return passOp{in: []int{in}, out: out, hook: true} }
	ops := []passOp{
		{out: bufX},
		{in: []int{bufX}, out: bufNormed},
		lin(bufNormed, bufK), lin(bufNormed, bufQ), lin(bufNormed, bufV),
		{in: []int{bufQ, bufK, bufV}, out: -1}, // rope, then the KV append
		{in: []int{bufQ}, out: bufCtx},         // attnUnits
		lin(bufCtx, bufAttn),
	}
	switch f {
	case FamilyGPTJ:
		return append(ops,
			lin(bufNormed, bufFFNA), passOp{in: []int{bufFFNA}, out: bufFFNA},
			lin(bufFFNA, bufFFNOut),
			passOp{in: []int{bufX, bufAttn, bufFFNOut}, out: bufX})
	case FamilyLlama:
		return append(ops,
			passOp{in: []int{bufX, bufAttn}, out: bufX}, passOp{in: []int{bufX}, out: bufNormed2},
			lin(bufNormed2, bufFFNA), lin(bufNormed2, bufFFNB),
			passOp{in: []int{bufFFNA, bufFFNB}, out: bufFFNA},
			lin(bufFFNA, bufFFNOut),
			passOp{in: []int{bufX, bufFFNOut}, out: bufX})
	default:
		return append(ops,
			passOp{in: []int{bufX, bufAttn}, out: bufX}, passOp{in: []int{bufX}, out: bufNormed2},
			lin(bufNormed2, bufFFNA), passOp{in: []int{bufFFNA}, out: bufFFNA},
			lin(bufFFNA, bufFFNOut),
			passOp{in: []int{bufX, bufFFNOut}, out: bufX})
	}
}

// familyConfigs is one zoo configuration per family.
func familyConfigs(t *testing.T) []Config {
	t.Helper()
	seen := map[Family]bool{}
	var out []Config
	for _, cfg := range Zoo() {
		if !seen[cfg.Family] {
			seen[cfg.Family] = true
			out = append(out, cfg)
		}
	}
	if len(out) != 3 {
		t.Fatalf("zoo has %d families, want 3", len(out))
	}
	return out
}

// TestArenaPlanDisjoint: in every family's region table, two buffers live at
// the same time — from the step that writes one to the last step that reads
// it — lie in disjoint columns, so every step's inputs and output are
// disjoint (an in-place step reads and writes the same buffer), and every
// buffer fits the slab's width.
func TestArenaPlanDisjoint(t *testing.T) {
	for _, cfg := range familyConfigs(t) {
		p, ops := planFor(cfg), blockOps(cfg.Family)
		type span struct{ buf, from, to int }
		var spans []span
		for i, op := range ops {
			if op.out >= 0 && p.cols[op.out] == 0 {
				t.Fatalf("%s: step %d writes buffer %d, which has no region", cfg.Name, i, op.out)
			}
			if op.out >= 0 && !contains(op.in, op.out) {
				spans = append(spans, span{op.out, i, i})
			}
			for _, b := range op.in {
				for j := len(spans) - 1; j >= 0; j-- {
					if spans[j].buf == b {
						spans[j].to = i
						break
					}
				}
			}
		}
		overlap := func(a, b int) bool {
			return p.off[a] < p.off[b]+p.cols[b] && p.off[b] < p.off[a]+p.cols[a]
		}
		for i, a := range spans {
			if p.off[a.buf]+p.cols[a.buf] > p.width {
				t.Fatalf("%s: buffer %d ends past the slab's %d columns", cfg.Name, a.buf, p.width)
			}
			for _, b := range spans[i+1:] {
				if a.buf != b.buf && a.from <= b.to && b.from <= a.to && overlap(a.buf, b.buf) {
					t.Errorf("%s: buffers %d (steps %d-%d) and %d (steps %d-%d) are live together in overlapping columns",
						cfg.Name, a.buf, a.from, a.to, b.buf, b.from, b.to)
				}
			}
		}
		for i, op := range ops {
			for _, b := range op.in {
				if op.hook && overlap(b, op.out) {
					t.Errorf("%s: step %d's hook sees input %d overlapping output %d", cfg.Name, i, b, op.out)
				}
			}
		}
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestArenaBuffersInSlab: after forward passes of mixed, growing and
// shrinking shapes on every family, each activation buffer is the pass's
// rows at its planned region of the slab — no buffer fell back to its own
// allocation — and every hook's input and output lay inside the slab while
// the hook ran.
func TestArenaBuffersInSlab(t *testing.T) {
	for _, cfg := range familyConfigs(t) {
		m := MustNew(cfg, 3, numerics.FP32)
		m.ensureRuntime()
		sc := m.scratch
		inside := func(data []float32) (off uintptr, ok bool) {
			lo := uintptr(unsafe.Pointer(unsafe.SliceData(sc.slab)))
			p := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
			size := unsafe.Sizeof(float32(0))
			return (p - lo) / size, p >= lo && p+uintptr(len(data))*size <= lo+uintptr(cap(sc.slab))*size
		}
		hooks := []Hook{func(ctx HookCtx, out *tensor.Tensor) {
			for _, x := range []*tensor.Tensor{ctx.Input, out} {
				if x == nil {
					continue // activation sites have no input
				}
				if _, ok := inside(x.Data); !ok {
					t.Fatalf("%s: %v hook at %v sees a buffer outside the slab", cfg.Name, ctx.Site, ctx.Layer)
				}
			}
		}}
		tok := func(i int) int { return 1 + i%(cfg.Vocab-1) }
		prompt := func(n, salt int) []int {
			p := make([]int, n)
			for i := range p {
				p[i] = tok(i*7 + salt)
			}
			return p
		}
		a, b, c := m.NewDecodeState(), m.NewDecodeState(), m.NewDecodeState()
		pa, pb, pc := prompt(9, 1), prompt(4, 2), prompt(23, 3)
		a.BeginPrefill(len(pa))
		b.BeginPrefill(len(pb))
		c.BeginPrefill(len(pc))
		passes := [][]BatchItem{
			{{State: a, Prefill: pa[:5], Hooks: hooks}, {State: b, Prefill: pb, Hooks: hooks}},
			{{State: a, Prefill: pa[5:], Hooks: hooks}, {State: b, Tok: tok(5), Hooks: hooks}},
			{{State: a, Tok: tok(6), Hooks: hooks}},
			{{State: c, Prefill: pc, Hooks: hooks}, {State: b, Tok: tok(7), Hooks: hooks}},
			{{State: a, Tok: tok(8), Hooks: hooks}, {State: b, Tok: tok(9), Hooks: hooks}, {State: c, Tok: tok(10), Hooks: hooks}},
		}
		for n, items := range passes {
			m.ForwardBatch(items, nil)
			rows := 0
			for i := range items {
				rows += items[i].rows()
			}
			for buf, x := range sc.bufs() {
				off, ok := inside(x.Data)
				if !ok || x.Rows != rows || x.Cols != sc.plan.cols[buf] || len(x.Data) > 0 && off != uintptr(rows*sc.plan.off[buf]) {
					t.Fatalf("%s pass %d (%d rows): buffer %d is %d×%d at element %d of the slab (inside %v), want %d×%d at %d",
						cfg.Name, n, rows, buf, x.Rows, x.Cols, off, ok, rows, sc.plan.cols[buf], rows*sc.plan.off[buf])
				}
			}
		}
	}
}
