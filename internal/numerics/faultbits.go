package numerics

import (
	"fmt"
	"math"
	"math/rand"
)

// DType selects the stored representation that a transient fault corrupts.
type DType int

const (
	// FP16 stores activations as IEEE-754 binary16.
	FP16 DType = iota
	// FP32 stores activations as IEEE-754 binary32.
	FP32
)

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case FP16:
		return "fp16"
	case FP32:
		return "fp32"
	default:
		return fmt.Sprintf("DType(%d)", int(d))
	}
}

// Bits returns the word width of the representation.
func (d DType) Bits() int {
	if d == FP16 {
		return 16
	}
	return 32
}

// ExponentBits returns the number of exponent bits of the representation.
func (d DType) ExponentBits() int {
	if d == FP16 {
		return F16ExpBits
	}
	return 8
}

// FaultModel enumerates the paper's three computation-fault models
// (Section 2.2): single-bit flip, double-bit flip, and a single-bit flip
// confined to the exponent field.
type FaultModel int

const (
	// SingleBit flips one uniformly random bit of the stored word.
	SingleBit FaultModel = iota
	// DoubleBit flips two distinct uniformly random bits.
	DoubleBit
	// ExponentBit flips one uniformly random bit within the exponent field —
	// the paper's most aggressive model.
	ExponentBit
)

// String implements fmt.Stringer.
func (m FaultModel) String() string {
	switch m {
	case SingleBit:
		return "1-bit"
	case DoubleBit:
		return "2-bit"
	case ExponentBit:
		return "EXP"
	default:
		return fmt.Sprintf("FaultModel(%d)", int(m))
	}
}

// AllFaultModels lists the three fault models in paper order.
var AllFaultModels = []FaultModel{SingleBit, DoubleBit, ExponentBit}

// ParseFaultModel is the inverse of String; "exp" also names ExponentBit.
func ParseFaultModel(s string) (FaultModel, error) {
	if s == "exp" {
		return ExponentBit, nil
	}
	for _, m := range AllFaultModels {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("numerics: unknown fault model %q", s)
}

// PickBits draws the bit positions this fault model flips for the given
// dtype, using rng. Positions are counted from the LSB (bit 0) to the sign
// bit (bit width-1). For binary16 the exponent field is bits 10..14; for
// binary32, bits 23..30.
func (m FaultModel) PickBits(d DType, rng *rand.Rand) []int {
	w := d.Bits()
	expLo := w - 1 - d.ExponentBits() // first exponent bit position (LSB side)
	switch m {
	case SingleBit:
		return []int{rng.Intn(w)}
	case DoubleBit:
		a := rng.Intn(w)
		b := rng.Intn(w - 1)
		if b >= a {
			b++
		}
		return []int{a, b}
	case ExponentBit:
		return []int{expLo + rng.Intn(d.ExponentBits())}
	default:
		panic("numerics: unknown fault model")
	}
}

// FlipBits16 returns h with the given bit positions flipped.
func FlipBits16(h uint16, bits []int) uint16 {
	for _, b := range bits {
		h ^= 1 << uint(b)
	}
	return h
}

// FlipBits32 returns w with the given bit positions flipped.
func FlipBits32(w uint32, bits []int) uint32 {
	for _, b := range bits {
		w ^= 1 << uint(b)
	}
	return w
}

// CorruptValue applies a bit-flip fault to the stored representation of v
// under the given dtype and returns the corrupted float32 value as the rest
// of the computation will observe it. For FP16 the value is first rounded to
// binary16 (it already is, if it came out of the precision gate), flipped,
// and expanded back; for FP32 the flip happens on the binary32 word.
func CorruptValue(v float32, d DType, bits []int) float32 {
	switch d {
	case FP16:
		return F16BitsToF32(FlipBits16(F32ToF16Bits(v), bits))
	case FP32:
		return math.Float32frombits(FlipBits32(math.Float32bits(v), bits))
	default:
		panic("numerics: unknown dtype")
	}
}

// CorruptRandom draws bit positions from the fault model and corrupts v.
// It returns the corrupted value and the flipped bit positions.
func CorruptRandom(v float32, d DType, m FaultModel, rng *rand.Rand) (float32, []int) {
	bits := m.PickBits(d, rng)
	return CorruptValue(v, d, bits), bits
}
