package tensor

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Cost-model-driven kernel dispatch (DESIGN.md §12).
//
// The previous dispatch was a static threshold: products above 1<<15
// multiply-adds took a pooled path. That loses exactly where decode lives —
// small-m, medium-n products whose serial time is comparable to the pool
// handoff — and it ignores how many CPUs actually back GOMAXPROCS, so a
// single-core host running at P=4 paid the full handoff for zero
// parallelism (P=4 decode at half the P=1 rate; `ft2bench -perfguard` gates it).
//
// Dispatch now consults a CostModel: measured serial throughput of the one
// dispatched product (x·Wᵀ, MatMulTInto) per m-class, a measured pool
// dispatch/chunk overhead, and a measured parallel efficiency. plan()
// predicts serial vs pooled time for the concrete (m, k, n, workers) shape
// and only leaves the serial path when
// the pooled prediction wins by a hysteresis margin — so P>1 can never lose
// to P=1 by more than mispredicted noise on any shape class. Workers are
// capped at runtime.NumCPU(): raising GOMAXPROCS past the physical core
// count adds handoff cost but no bandwidth, so it never changes the plan.
//
// The model ships with conservative defaults (serial until a product is
// clearly large enough) and is measured in-process by Calibrate/AutoCalibrate
// at binary start-up (~15 ms).

// m-classes bucket the output-row count: m=1 (single-token decode), small
// batches, and prefill-sized blocks have very different per-madd costs
// because the dot kernels amortize differently.
const numMClasses = 5

func mClass(m int) int {
	switch {
	case m <= 1:
		return 0
	case m <= 3:
		return 1
	case m <= 7:
		return 2
	case m <= 15:
		return 3
	default:
		return 4
	}
}

// mClassRep is the representative m Calibrate measures per class.
var mClassRep = [numMClasses]int{1, 2, 5, 12, 32}

// CostModel holds the measured constants the dispatcher predicts with. All
// times are nanoseconds.
type CostModel struct {
	// SerialNsPerMadd[mClass]: serial MatMulT cost per multiply-add.
	SerialNsPerMadd [numMClasses]float64
	// PoolDispatchNs: fixed cost of waking the pool for one product.
	PoolDispatchNs float64
	// PoolChunkNs: marginal cost per chunk (cursor claim + WaitGroup).
	PoolChunkNs float64
	// ParallelEff: fraction of linear speedup each extra worker adds
	// (speedup ≈ 1 + eff·(w-1)).
	ParallelEff float64
}

// hysteresis: the pooled prediction must beat serial by this factor before
// dispatch leaves the serial path. Mispredicting toward serial costs a
// bounded fraction of ideal speedup; mispredicting toward pooled costs a
// regression, which the acceptance bar forbids.
const planMargin = 1.15

// plan is one dispatch decision.
type plan struct {
	mode    planMode
	chunk   int
	helpers int
}

type planMode uint8

const (
	planSerial planMode = iota
	planRows
	planCols
)

// DefaultCostModel returns the conservative uncalibrated model: serial
// throughput guessed slow (so pooling engages only for clearly large
// products) and pool overhead guessed high.
func DefaultCostModel() *CostModel {
	return &CostModel{
		SerialNsPerMadd: [numMClasses]float64{0.45, 0.35, 0.28, 0.22, 0.18},
		PoolDispatchNs:  20000,
		PoolChunkNs:     800,
		ParallelEff:     0.7,
	}
}

var costModelPtr atomic.Pointer[CostModel]

func init() { costModelPtr.Store(DefaultCostModel()) }

func currentCostModel() *CostModel { return costModelPtr.Load() }

// SetCostModel installs cm as the process-wide dispatch model (nil restores
// the defaults). The pointer is read atomically per product, so swapping
// mid-run is safe; results are unaffected either way (every plan is
// bit-identical).
func SetCostModel(cm *CostModel) {
	if cm == nil {
		cm = DefaultCostModel()
	}
	costModelPtr.Store(cm)
}

// CurrentCostModel returns a copy of the installed model.
func CurrentCostModel() CostModel { return *costModelPtr.Load() }

// cachedNumCPU avoids the runtime.NumCPU call (cheap but not free) on the
// per-product dispatch path. Atomic so SetNumCPUOverride can swap it under
// the race detector while kernels are running.
var cachedNumCPU atomic.Int64

func init() { cachedNumCPU.Store(int64(runtime.NumCPU())) }

// effectiveNumCPU is the physical-core cap every worker-count decision
// (dispatch plans, attention fan-out) respects.
func effectiveNumCPU() int { return int(cachedNumCPU.Load()) }

// SetNumCPUOverride replaces the detected physical CPU count that caps
// worker recruitment, returning the previous value; n <= 0 restores
// detection. Every plan is bit-identical regardless of worker count, so the
// override only shifts work placement — it exists so tests (and experiments)
// can exercise the multi-worker paths on hosts with fewer cores, e.g. the
// mixed-phase race battery forcing the attention fan-out onto pool helpers.
func SetNumCPUOverride(n int) int {
	prev := effectiveNumCPU()
	if n <= 0 {
		n = runtime.NumCPU()
	}
	cachedNumCPU.Store(int64(n))
	return prev
}

// plan picks serial vs row-split vs col-split for an m×k×n product under
// `procs` GOMAXPROCS. It allocates nothing.
func (cm *CostModel) plan(m, k, n, procs int) plan {
	workers := procs
	if cpus := effectiveNumCPU(); workers > cpus {
		workers = cpus
	}
	if workers <= 1 {
		return plan{mode: planSerial}
	}
	serialNs := float64(m*k*n) * cm.SerialNsPerMadd[mClass(m)]
	if serialNs <= cm.PoolDispatchNs {
		// The whole product costs less than waking the pool.
		return plan{mode: planSerial}
	}
	mode := planCols
	grid, per := n, m*k
	if m >= workers {
		mode = planRows
		grid, per = m, k*n
	}
	chunk := chunkFor(grid, per, workers)
	chunks := (grid + chunk - 1) / chunk
	if chunks < 2 {
		return plan{mode: planSerial}
	}
	pooledNs := cm.PoolDispatchNs + float64(chunks)*cm.PoolChunkNs +
		serialNs/(1+cm.ParallelEff*float64(workers-1))
	if pooledNs*planMargin >= serialNs {
		return plan{mode: planSerial}
	}
	helpers := chunks - 1
	if helpers > workers-1 {
		helpers = workers - 1
	}
	return plan{mode: mode, chunk: chunk, helpers: helpers}
}

// chunkFor sizes chunks: enough of them for the pool to balance (≈4 per
// worker) but each at least grainWork multiply-adds (workPer per grid
// element).
func chunkFor(grid, workPer, workers int) int {
	chunk := (grid + workers*4 - 1) / (workers * 4)
	if min := (grainWork + workPer - 1) / workPer; chunk < min {
		chunk = min
	}
	if chunk < 1 {
		chunk = 1
	}
	return chunk
}

// AttnHelpers sizes the pool fan-out for a batched attention section of
// `units` independent (session × head) work units totalling roughly `madds`
// multiply-adds. Zero means run the section inline — the correct answer
// whenever the handoff would cost more than the parallelism buys (small
// groups, short KV, or a host without spare cores). Work units are row-dot
// shaped, so the single-row MatMulT class approximates their serial cost.
func (cm *CostModel) AttnHelpers(units, madds int) int {
	workers := runtime.GOMAXPROCS(0)
	if cpus := effectiveNumCPU(); workers > cpus {
		workers = cpus
	}
	if workers <= 1 || units < 2 {
		return 0
	}
	serialNs := float64(madds) * cm.SerialNsPerMadd[0]
	if serialNs <= cm.PoolDispatchNs {
		return 0
	}
	pooledNs := cm.PoolDispatchNs + float64(units)*cm.PoolChunkNs +
		serialNs/(1+cm.ParallelEff*float64(workers-1))
	if pooledNs*planMargin >= serialNs {
		return 0
	}
	helpers := workers - 1
	if helpers > units-1 {
		helpers = units - 1
	}
	return helpers
}

// ---- calibration ----

// timeOp reports the best-of-3 per-call nanoseconds of f, sizing the rep
// count so each sample runs ≥ minSample.
func timeOp(f func(), minSample time.Duration) float64 {
	reps := 1
	f() // warm caches and the page tables
	for {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		el := time.Since(start)
		if el >= minSample {
			break
		}
		if el <= 0 {
			reps *= 16
			continue
		}
		grow := int(float64(minSample)/float64(el)) + 1
		if grow < 2 {
			grow = 2
		}
		reps *= grow
	}
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		ns := float64(time.Since(start).Nanoseconds()) / float64(reps)
		if trial == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// Calibrate measures the kernel cost model on this host: serial MatMulT
// ns/madd across the m-classes and — when more than one worker is available —
// the pool handoff overhead and the parallel efficiency at the current
// GOMAXPROCS. With one worker plan() and AttnHelpers never read the pool
// constants, so they keep their defaults. Takes on the order of tens of
// milliseconds. The returned model is not installed; call SetCostModel (or
// AutoCalibrate, which does both).
func Calibrate() *CostModel {
	cm := DefaultCostModel()
	const k, n = 96, 384 // decode-representative inner/outer widths

	for class, m := range mClassRep {
		a, b, out := New(m, k), New(n, k), New(m, n)
		a.Fill(0.5)
		b.Fill(0.25)
		cm.SerialNsPerMadd[class] =
			timeOp(func() { matMulTRows(out, a, b, 0, m) }, 100*time.Microsecond) / float64(m*k*n)
	}

	workers := runtime.GOMAXPROCS(0)
	if cpus := effectiveNumCPU(); workers > cpus {
		workers = cpus
	}
	if workers <= 1 {
		return cm
	}

	// Pool overhead: run a tiny grid through the pool with one helper
	// recruited — so the handoff (channel send, wake, WaitGroup) is really
	// paid — and subtract the serial kernel time. Chunked 8 ways so the
	// per-chunk cost registers.
	{
		m, kk, nn := 4, 64, 64
		a, b, out := New(m, kk), New(nn, kk), New(m, nn)
		a.Fill(0.5)
		b.Fill(0.25)
		const chunks = 8
		chunk := (nn + chunks - 1) / chunks
		serial := timeOp(func() { matMulTRows(out, a, b, 0, m) }, 100*time.Microsecond)
		pooled := timeOp(func() {
			runPooled(kernelMatMulTCols, out, a, b, nn, chunk, 1)
		}, 100*time.Microsecond)
		over := pooled - serial
		if over < 1000 {
			over = 1000
		}
		cm.PoolChunkNs = over / chunks
		pooled = timeOp(func() {
			runPooled(kernelMatMulTCols, out, a, b, nn, nn/2, 1)
		}, 100*time.Microsecond)
		disp := pooled - serial - 2*cm.PoolChunkNs
		if disp < 2000 {
			disp = 2000
		}
		cm.PoolDispatchNs = disp
	}

	// Parallel efficiency: a large row-split product at the effective
	// worker count.
	{
		m, kk, nn := 64, 128, 256
		a, b, out := New(m, kk), New(nn, kk), New(m, nn)
		a.Fill(0.5)
		b.Fill(0.25)
		serial := timeOp(func() { matMulTRows(out, a, b, 0, m) }, 200*time.Microsecond)
		chunk := chunkFor(m, kk*nn, workers)
		pooled := timeOp(func() {
			runPooled(kernelMatMulTRows, out, a, b, m, chunk, workers-1)
		}, 200*time.Microsecond)
		eff := (serial/pooled - 1) / float64(workers-1)
		if eff < 0.05 {
			eff = 0.05
		}
		if eff > 1 {
			eff = 1
		}
		cm.ParallelEff = eff
	}
	return cm
}

// AutoCalibrate measures and installs the cost model in one step; binaries
// call it once at startup (after flag parsing, before the hot loops).
func AutoCalibrate() { SetCostModel(Calibrate()) }
