package tensor

import "math"

// ReLU applies max(0, x) in place — OPT's MLP activation.
func ReLU(t *Tensor) {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
}

// GELU applies the tanh-approximated Gaussian error linear unit in place —
// GPT-J's MLP activation.
func GELU(t *Tensor) {
	const c = 0.7978845608028654 // sqrt(2/pi)
	for i, v := range t.Data {
		x := float64(v)
		t.Data[i] = float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
	}
}

// SiLU applies x·sigmoid(x) in place — the Llama/Qwen gate activation.
func SiLU(t *Tensor) {
	// Split loop: expNeg fills the exp values, then the vector kernel finishes
	// x/(1+e) — per-lane IEEE add/divide/convert, bit-identical to the fused
	// loop.
	data := t.Data
	var ebuf [256]float64
	for len(data) > 0 {
		chunk := data[:min(len(data), len(ebuf))]
		e := ebuf[:len(chunk)]
		expNeg(e, chunk)
		if !siluFinish(chunk, e) {
			for i, v := range chunk {
				chunk[i] = float32(float64(v) / (1 + e[i]))
			}
		}
		data = data[len(chunk):]
	}
}

// expNeg fills e[i] = math.Exp(−float64(x[i])): expSum's split between the
// packed kernel and the scalar loop, with float64 results.
func expNeg(e []float64, x []float32) {
	for i := 0; i < len(x); {
		if hasFMA && len(x)-i >= 4 {
			i += expNegVec(&e[i], &x[i], len(x)-i)
		}
		for end := min(i+4, len(x)); i < end; i++ {
			e[i] = math.Exp(-float64(x[i]))
		}
	}
}

// ActivationKind identifies an activation function by name; the
// architecture analyzer uses it when classifying layer criticality.
type ActivationKind int

const (
	// ActNone marks the absence of an activation.
	ActNone ActivationKind = iota
	// ActReLU is the rectified linear unit.
	ActReLU
	// ActGELU is the Gaussian error linear unit (tanh approximation).
	ActGELU
	// ActSiLU is the sigmoid linear unit (a.k.a. swish).
	ActSiLU
)

// String implements fmt.Stringer.
func (a ActivationKind) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActReLU:
		return "relu"
	case ActGELU:
		return "gelu"
	case ActSiLU:
		return "silu"
	default:
		return "unknown"
	}
}

// Apply runs the activation in place.
func (a ActivationKind) Apply(t *Tensor) {
	switch a {
	case ActNone:
		return
	case ActReLU:
		ReLU(t)
	case ActGELU:
		GELU(t)
	case ActSiLU:
		SiLU(t)
	default:
		panic("tensor: unknown activation")
	}
	t.MarkMutated()
}

// RopeTable caches the sin/cos factors of rotary position embeddings for
// every (position, frequency) pair, so the decode hot path rotates with two
// table lookups instead of a math.Pow and math.Sincos per pair. The factors
// are kept in float64 and the rotation applied in float64 exactly as in
// RotaryEmbed, so table-driven and direct application are bit-identical.
type RopeTable struct {
	half     int
	sin, cos []float64 // indexed pos*half + i
}

// NewRopeTable precomputes rotation factors for positions [0, maxPos) over
// rotDim interleaved dimensions with the given frequency base.
func NewRopeTable(maxPos, rotDim int, base float64) *RopeTable {
	half := rotDim / 2
	rt := &RopeTable{
		half: half,
		sin:  make([]float64, maxPos*half),
		cos:  make([]float64, maxPos*half),
	}
	for pos := 0; pos < maxPos; pos++ {
		for i := 0; i < half; i++ {
			theta := float64(pos) / math.Pow(base, 2*float64(i)/float64(rotDim))
			s, c := math.Sincos(theta)
			rt.sin[pos*half+i] = s
			rt.cos[pos*half+i] = c
		}
	}
	return rt
}

// Apply rotates the first 2*half elements of row (interleaved even/odd
// pairs) in place for absolute position pos.
func (rt *RopeTable) Apply(row []float32, pos int) {
	base := pos * rt.half
	for i := 0; i < rt.half; i++ {
		sin, cos := rt.sin[base+i], rt.cos[base+i]
		a, b := float64(row[2*i]), float64(row[2*i+1])
		row[2*i] = float32(a*cos - b*sin)
		row[2*i+1] = float32(a*sin + b*cos)
	}
}

// RotaryEmbed applies rotary position embeddings (RoPE) in place to a
// row-major [seq × dim] tensor whose rows are per-position head vectors
// laid out as interleaved (even, odd) pairs over rotDim dimensions.
// positions gives the absolute position of each row.
func RotaryEmbed(t *Tensor, positions []int, rotDim int, base float64) {
	if rotDim > t.Cols {
		panic("tensor: RotaryEmbed rotDim exceeds width")
	}
	if len(positions) != t.Rows {
		panic("tensor: RotaryEmbed positions length mismatch")
	}
	half := rotDim / 2
	for r := 0; r < t.Rows; r++ {
		row := t.Row(r)
		pos := float64(positions[r])
		for i := 0; i < half; i++ {
			theta := pos / math.Pow(base, 2*float64(i)/float64(rotDim))
			sin, cos := math.Sincos(theta)
			a, b := float64(row[2*i]), float64(row[2*i+1])
			row[2*i] = float32(a*cos - b*sin)
			row[2*i+1] = float32(a*sin + b*cos)
		}
	}
	t.MarkMutated()
}
