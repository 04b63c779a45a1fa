package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The stride kernels against their definitions, bit for bit: DotStride
// against one Dot call per position, AxpyStride against the scalar
// multiply-then-add loop. strideCase draws what the register paths could get
// wrong, the checks place every slice at each misalignment and fence the
// output with canaries, and FuzzStrideSweeps mutates raw bit patterns.

// fillStride draws every class the kernels treat differently from a normal:
// zeros of both signs (the 0 + p that opens a dot accumulator turns a −0
// product into +0), subnormals, ±Inf, and quiet and signalling NaNs of either
// sign with random payloads, so which operand's NaN survives shows in the bits.
func fillStride(r *rand.Rand, p []float32) {
	for i := range p {
		switch r.Intn(16) {
		case 0, 1:
			p[i] = math.Float32frombits(randSign(r))
		case 2:
			p[i] = math.Float32frombits(randSign(r) | uint32(1+r.Intn(1<<23-1)))
		case 3:
			p[i] = math.Float32frombits(randSign(r) | 0x7f800000 | uint32(1+r.Intn(1<<23-1)))
		case 4:
			p[i] = math.Float32frombits(randSign(r) | 0x7f800000)
		default:
			p[i] = r.Float32()*4 - 2
		}
	}
}

// randSign is a float32 sign bit, set half the time.
func randSign(r *rand.Rand) uint32 { return uint32(r.Intn(2)) << 31 }

// strideCase draws one input for both kernels: q is DotStride's query and
// AxpyStride's initial dst, slab the K (or V) rows, w AxpyStride's weights —
// a third of them exact zeros of either sign, which must be skipped, beside
// NaN weights, which must not. Every other case has a clean q, so that a few
// slab rows can be planted with what a random fill all but never produces:
// products that are all −0 or all underflow, and a row that is NaN in every
// lane — with one q lane made NaN too, so two payloads meet in one multiply.
func strideCase(r *rand.Rand, d, limit int) (q, slab, w []float32) {
	q, slab, w = make([]float32, d), make([]float32, limit*d), make([]float32, limit)
	fillStride(r, q)
	fillStride(r, slab)
	fillStride(r, w)
	for j := range w {
		if r.Intn(3) == 0 {
			w[j] = math.Float32frombits(randSign(r))
		}
	}
	if r.Intn(2) == 0 {
		return q, slab, w
	}
	for i := range q {
		q[i] = float32(math.Copysign(float64(r.Float32()+0.5), float64(1-2*r.Intn(2))))
	}
	for j := 0; j < limit; j++ {
		row := slab[j*d : (j+1)*d]
		switch r.Intn(6) {
		case 0:
			for i := range row {
				row[i] = float32(math.Copysign(0, float64(-q[i])))
			}
		case 1:
			for i := range row {
				row[i] = math.Float32frombits(randSign(r) | uint32(1+r.Intn(64)))
			}
		case 2:
			for i := range row {
				row[i] = math.Float32frombits(0x7fc00000 | uint32(1+r.Intn(1<<22-1)))
			}
			q[r.Intn(d)] = math.Float32frombits(0xffc00000 | uint32(1+r.Intn(1<<22-1)))
		}
	}
	return q, slab, w
}

// forEachStrideShape visits head dimensions on both sides of the register
// paths (scores: 4, 8, 12, 16; context: every d, in column blocks of 16, 12,
// 8, 4 and 1), limits straddling the four-position block, and every offset of
// the slices against the 16-byte vector width.
func forEachStrideShape(fn func(d, limit, off int)) {
	for _, d := range []int{1, 3, 4, 8, 12, 16, 20, 24, 33} {
		for _, limit := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 40, 255, 256} {
			for off := 0; off < 4; off++ {
				fn(d, limit, off)
			}
		}
	}
}

// offsetCopy returns a copy of src that starts off floats into its allocation.
func offsetCopy(src []float32, off int) []float32 {
	buf := make([]float32, off+len(src))
	copy(buf[off:], src)
	return buf[off:]
}

const strideCanary = 0xdeadbeef

// fenced returns an n-float window off+1 floats into a buffer of canaries,
// with one more canary behind it; checkFence fails if the kernel wrote any.
func fenced(n, off int) (buf, win []float32) {
	buf = make([]float32, off+1+n+1)
	for i := range buf {
		buf[i] = math.Float32frombits(strideCanary)
	}
	return buf, buf[off+1 : off+1+n]
}

func checkFence(t *testing.T, what string, buf []float32, n, off int) {
	t.Helper()
	for i, v := range buf {
		if (i <= off || i > off+n) && math.Float32bits(v) != strideCanary {
			t.Fatalf("%s: wrote outside its %d outputs, at %d", what, n, i-off-1)
		}
	}
}

// sameBits: on amd64 a NaN's sign and payload are part of the contract — the
// kernels keep the operand order of the loops they replaced, and SSE returns
// its first operand when both are NaN. The portable loops leave that choice
// to the compiler, so there any NaN equals any NaN.
func sameBits(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) ||
		runtime.GOARCH != "amd64" && got != got && want != want
}

func checkDotStride(t *testing.T, d, limit, off int, scale float32, q, k []float32) {
	t.Helper()
	what := fmt.Sprintf("DotStride d=%d limit=%d off=%d", d, limit, off)
	buf, got := fenced(limit, off)
	DotStride(got, offsetCopy(q, off), offsetCopy(k, off), d, limit, scale)
	checkFence(t, what, buf, limit, off)
	for j := range got {
		if want := Dot(q, k[j*d:(j+1)*d]) * scale; !sameBits(got[j], want) {
			t.Fatalf("%s j=%d: got %08x want %08x", what, j, math.Float32bits(got[j]), math.Float32bits(want))
		}
	}
}

// sseOp is r = a op b as an SSE instruction with destination a returns it:
// when both operands are NaN the result is a, quieted, whichever way round
// the compiler put them to compute r.
func sseOp(a, b, r float32) float32 {
	if a != a && b != b {
		return math.Float32frombits(math.Float32bits(a) | 0x00400000)
	}
	return r
}

func checkAxpyStride(t *testing.T, d, limit, off int, dst0, v, w []float32) {
	t.Helper()
	what := fmt.Sprintf("AxpyStride d=%d limit=%d off=%d", d, limit, off)
	want := append([]float32(nil), dst0...)
	for j := 0; j < limit; j++ {
		if w[j] == 0 {
			continue
		}
		for i := range want {
			vi := v[j*d+i]
			p := sseOp(vi, w[j], float32(vi*w[j]))
			want[i] = sseOp(want[i], p, want[i]+p)
		}
	}
	buf, got := fenced(d, off)
	copy(got, dst0)
	AxpyStride(got, offsetCopy(v, off), offsetCopy(w, off), d, limit)
	checkFence(t, what, buf, d, off)
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s i=%d: got %08x want %08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func TestDotStrideBitIdentity(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(11))
		forEachStrideShape(func(d, limit, off int) {
			q, k, _ := strideCase(r, d, limit)
			checkDotStride(t, d, limit, off, r.Float32()+0.5, q, k)
		})
	})
}

func TestAxpyStrideBitIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	forEachStrideShape(func(d, limit, off int) {
		dst, v, w := strideCase(r, d, limit)
		checkAxpyStride(t, d, limit, off, dst, v, w)
	})
}

// FuzzStrideSweeps runs both checks on raw bit patterns: byte 0 picks d in
// 1–24, byte 1 the offset, then little-endian float32s — the scale (a NaN
// scale is replaced: Dot(q, k)·scale in Go fixes no operand order), d floats
// of q / initial dst, and as many (slab row, weight) pairs as are left. The
// seeds are small strideCases around the four-position block.
func FuzzStrideSweeps(f *testing.F) {
	r := rand.New(rand.NewSource(17))
	for _, d := range []int{4, 8, 12, 16, 20} {
		for _, limit := range []int{3, 5, 9} {
			q, slab, w := strideCase(r, d, limit)
			b := []byte{byte(d - 1), byte(r.Intn(4))}
			for _, part := range [][]float32{{r.Float32() + 0.5}, q, slab, w} {
				for _, v := range part {
					b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
				}
			}
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		d, off := 1+int(b[0])%24, int(b[1])%4
		fl := make([]float32, (len(b)-2)/4)
		for i := range fl {
			fl[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[2+4*i:]))
		}
		if len(fl) < 1+d {
			return
		}
		scale, q, rest := fl[0], fl[1:1+d], fl[1+d:]
		if scale != scale {
			scale = 0.29
		}
		limit := len(rest) / (d + 1)
		slab, w := rest[:limit*d], rest[limit*d:limit*d+limit]
		checkDotStride(t, d, limit, off, scale, q, slab)
		checkAxpyStride(t, d, limit, off, q, slab, w)
	})
}

// BenchmarkAttnHead times one (row, head) attention unit the way attnUnits
// runs it — score sweep, softmax, normalise, context sweep — at the zoo's head
// dimensions and the KV depths the benchmark workloads reach, in ns per
// cached position.
func BenchmarkAttnHead(b *testing.B) {
	r := rand.New(rand.NewSource(35))
	for _, d := range []int{12, 8} {
		for _, kv := range []int{64, 184} {
			q, k, v := make([]float32, d), make([]float32, kv*d), make([]float32, kv*d)
			for _, p := range [][]float32{q, k, v} {
				for i := range p {
					p[i] = float32(r.NormFloat64())
				}
			}
			scores, out := make([]float32, kv), make([]float32, d)
			scale := float32(1 / math.Sqrt(float64(d)))
			b.Run(fmt.Sprintf("d=%d/kv=%d", d, kv), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					clear(out)
					DotStride(scores, q, k, d, kv, scale)
					if sum := SoftmaxRow(scores); sum > 0 {
						ScaleSlice(scores, 1/sum)
						AxpyStride(out, v, scores, d, kv)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kv), "ns/pos")
			})
		}
	}
}
