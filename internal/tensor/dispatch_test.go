package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"ft2/internal/numerics"
)

// ---- kernel identity: every row kernel must agree bit-for-bit ----

// The one-element kernel of either tier must propagate NaN: linear layers
// carry injected faults through these kernels.
func TestDotRowPropagatesNaN(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		nan := float32(math.NaN())
		for _, n := range []int{1, 5, 8, 16, 33, 96} {
			for _, pos := range []int{0, n / 2, n - 1} {
				a := make([]float32, n)
				b := make([]float32, n)
				for i := range a {
					a[i], b[i] = 1, 2
				}
				b[pos] = nan
				if v := dotRef(a, b); !math.IsNaN(float64(v)) {
					t.Fatalf("n=%d pos=%d: dot = %g, want NaN", n, pos, v)
				}
			}
		}
	})
}

// The f16 row kernels must be bit-identical to the f32 kernel over the
// decoded master copy — VCVTPH2PS is exact, so any divergence is an op
// order bug.
func TestDotRowF16MatchesF32(t *testing.T) {
	if !hasF16C {
		t.Skip("no F16C tier on this host")
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{1, 2, 7, 8, 9, 16, 17, 24, 33, 96, 264, 384} {
		a := make([]float32, n)
		bf := make([]float32, n)
		bh := make([]uint16, n)
		for i := range a {
			a[i] = float32(rng.NormFloat64())
			hb := numerics.F32ToF16Bits(float32(rng.NormFloat64()))
			bh[i] = hb
			bf[i] = numerics.F16BitsToF32(hb)
		}
		got := dotRowF16(a, bh)
		want := dotRef(a, bf)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("n=%d: dotRowF16 = %x, dotVecFMA = %x", n, math.Float32bits(got), math.Float32bits(want))
		}
		lda := n
		a4 := make([]float32, 4*n)
		for i := range a4 {
			a4[i] = float32(rng.NormFloat64())
		}
		r0, r1, r2, r3 := dotRow4F16(a4, lda, bh)
		for i, g := range []float32{r0, r1, r2, r3} {
			w := dotRowF16(a4[i*lda:i*lda+n], bh)
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("n=%d row %d: dotRow4F16 = %x, dotRowF16 = %x", n, i, math.Float32bits(g), math.Float32bits(w))
			}
		}
	}
}

// ---- forced-plan identity: serial, row-split, col-split, f16 ----

// Every dispatch plan must produce MatMulT results bit-identical to the
// tier's one-element kernel, on both tiers, across the row-count classes
// (single row, a 4-row group plus remainder, the column-tiled ≥8-row form),
// including with a packed-f16 operand streaming on and off.
func TestMatMulTPlansBitIdentical(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, shape := range [][3]int{{1, 96, 40}, {6, 96, 40}, {13, 33, 70}} {
			m, k, n := shape[0], shape[1], shape[2]
			a := New(m, k)
			b := New(n, k)
			a.RandNormal(rng, 1)
			b.RandNormal(rng, 1)

			ref := New(m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					ref.Data[i*n+j] = dotRef(a.Row(i), b.Row(j))
				}
			}

			serial := New(m, n)
			matMulTRows(serial, a, b, 0, m)
			if !serial.Equal(ref) {
				t.Errorf("%v: serial MatMulT diverges from the per-element kernel", shape)
			}

			rows := New(m, n)
			runPooled(kernelMatMulTRows, rows, a, b, m, 2, 1)
			if !rows.Equal(ref) {
				t.Errorf("%v: row-split MatMulT diverges from the per-element kernel", shape)
			}

			cols := New(m, n)
			runPooled(kernelMatMulTCols, cols, a, b, n, 7, 1)
			if !cols.Equal(ref) {
				t.Errorf("%v: col-split MatMulT diverges from the per-element kernel", shape)
			}

			// f16: packing rounds b, so recompute the serial reference, then
			// check streamed (shadow read) against unstreamed (master copy
			// read).
			b.PackF16()
			f32ref := New(m, n)
			prev := SetF16Streaming(false)
			matMulTRows(f32ref, a, b, 0, m)
			SetF16Streaming(true)
			f16out := New(m, n)
			matMulTRows(f16out, a, b, 0, m)
			SetF16Streaming(prev)
			if !f16out.Equal(f32ref) {
				t.Errorf("%v: f16-streamed MatMulT diverges from f32 over the same rounded weights", shape)
			}
		}
	})
}

// ---- plan() behavior ----

func TestPlanSerialWhenNoParallelism(t *testing.T) {
	cm := DefaultCostModel()
	// One worker: always serial, no matter the shape.
	if p := cm.plan(64, 512, 512, 1); p.mode != planSerial {
		t.Error("plan with 1 worker must be serial")
	}
	// GOMAXPROCS above the physical core count adds nothing: the plan must
	// not change past NumCPU (this is the P>1-never-loses-to-P=1 rule on a
	// host with fewer cores than GOMAXPROCS).
	pCPU := cm.plan(64, 512, 512, runtime.NumCPU())
	pOver := cm.plan(64, 512, 512, runtime.NumCPU()*4)
	if pOver != pCPU {
		t.Errorf("plan changed past NumCPU: %+v vs %+v", pOver, pCPU)
	}
	// Tiny product: serial at any worker count.
	if p := cm.plan(1, 12, 8, 8); p.mode != planSerial {
		t.Error("tiny product must stay serial")
	}
}

func TestPlanPooledForLargeProducts(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("single-CPU host: pooled plans are unreachable by design")
	}
	cm := DefaultCostModel()
	p := cm.plan(256, 512, 512, runtime.NumCPU())
	if p.mode == planSerial {
		t.Error("large product should take a pooled plan on a multi-CPU host")
	}
}

// ---- calibration ----

func TestCalibrateProducesSaneModel(t *testing.T) {
	cm := Calibrate()
	for class, v := range cm.SerialNsPerMadd {
		if v <= 0 || v > 1000 {
			t.Errorf("class %d: implausible ns/madd %g", class, v)
		}
	}
	if cm.PoolDispatchNs <= 0 || cm.PoolChunkNs <= 0 {
		t.Error("pool overheads must be positive")
	}
	if cm.ParallelEff <= 0 || cm.ParallelEff > 1 {
		t.Errorf("parallel efficiency %g out of range", cm.ParallelEff)
	}
}

// Regression: with one worker there is no handoff to measure — Calibrate
// used to time the pool with zero helpers anyway and report its clamping
// floors as if measured. The pool constants must stay at their defaults.
func TestCalibrateOneWorkerKeepsPoolDefaults(t *testing.T) {
	defer SetNumCPUOverride(SetNumCPUOverride(1))
	cm, def := Calibrate(), DefaultCostModel()
	if cm.PoolDispatchNs != def.PoolDispatchNs || cm.PoolChunkNs != def.PoolChunkNs || cm.ParallelEff != def.ParallelEff {
		t.Errorf("one-worker calibration changed the pool constants: %+v", cm)
	}
}
