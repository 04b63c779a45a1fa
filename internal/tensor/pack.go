package tensor

import (
	"sync/atomic"

	"ft2/internal/numerics"
)

// Packed binary16 weight storage (DESIGN.md §12).
//
// PackF16 gives a tensor a packed half-precision shadow of its contents.
// Data stays the master copy: every value is first rounded through the same
// binary16 grid the activations pass through (numerics.RoundF16 semantics),
// so the shadow decodes to Data bit-for-bit and every consumer that reads
// Data — fault-site addressing, FT2 bound profiling, non-F16C kernels —
// observes exactly the values the f16 kernels stream.
// The shadow is purely a bandwidth optimization: on F16C hosts the MatMulT
// row kernels stream half the bytes per weight row; everywhere else the
// tensor behaves as if PackF16 had only quantized it.
//
// Mutation invalidates the shadow (MarkMutated clears halfOK) and the
// tensor silently falls back to f32 streaming of the mutated master copy —
// never re-packing automatically, because a mutated value (for instance a
// fault-flipped weight) need not be representable in binary16 and
// re-rounding it would change the computation. Call PackF16 again to
// restore f16 streaming after deliberate mutation.

// f16Stream is the process-wide gate for streaming packed shadows; tests
// and benches flip it to force the f32 path on F16C hosts.
var f16Stream atomic.Bool

func init() { f16Stream.Store(true) }

// SetF16Streaming enables or disables use of packed-f16 shadows by the
// matmul kernels (packing state is kept either way) and reports the
// previous setting. Streaming is on by default; it only takes effect on
// hosts with the F16C kernel tier.
func SetF16Streaming(on bool) (prev bool) { return f16Stream.Swap(on) }

// F16StreamingAvailable reports whether this host has the F16C kernel tier,
// i.e. whether PackF16 can change streaming bandwidth at all.
func F16StreamingAvailable() bool { return hasF16C }

// PackF16 rounds every element through the binary16 grid (exactly
// numerics.RoundF16; overflow rounds to ±Inf) and builds the packed shadow.
func (t *Tensor) PackF16() {
	n := len(t.Data)
	if cap(t.half) < n {
		t.half = make([]uint16, n)
	} else {
		t.half = t.half[:n]
	}
	for i, v := range t.Data {
		hb := numerics.F32ToF16Bits(v)
		t.half[i] = hb
		t.Data[i] = numerics.F16BitsToF32(hb)
	}
	t.halfOK.Store(1)
}

// IsPackedF16 reports whether the tensor currently has a valid packed
// shadow (packed and not mutated since).
func (t *Tensor) IsPackedF16() bool { return t.half != nil && t.halfOK.Load() == 1 }

// halfData returns the packed shadow when the kernels may stream it: valid
// shadow, streaming enabled, and the F16C tier present (which pins the FMA
// f32 kernels of identical op order). Returns nil otherwise, sending the
// caller down the bit-identical f32 path.
func (t *Tensor) halfData() []uint16 {
	if !hasF16C || t.half == nil || t.halfOK.Load() != 1 || !f16Stream.Load() {
		return nil
	}
	return t.half
}
