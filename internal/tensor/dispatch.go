package tensor

import (
	"encoding/json"
	"fmt"
	"os"
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
// Dispatch now consults a CostModel: measured serial throughput per kernel
// kind and m-class, a measured pool dispatch/chunk overhead, and a measured
// parallel efficiency. plan() predicts serial vs pooled time for the
// concrete (m, k, n, workers) shape and only leaves the serial path when
// the pooled prediction wins by a hysteresis margin — so P>1 can never lose
// to P=1 by more than mispredicted noise on any shape class. Workers are
// capped at runtime.NumCPU(): raising GOMAXPROCS past the physical core
// count adds handoff cost but no bandwidth, so it never changes the plan.
//
// The model ships with conservative defaults (serial until a product is
// clearly large enough), is measured in-process by Calibrate/AutoCalibrate,
// and round-trips through JSON (cmd/calibrate writes the file, binaries
// load it via LoadCalibration) so startup does not have to re-measure.

// matKind distinguishes the two product families with different inner
// loops: MatMul (k-outer accumulate) and MatMulT (row-dot).
type matKind int

const (
	kindMatMul matKind = iota
	kindMatMulT
	numMatKinds
)

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
	// SerialNsPerMadd[kind][mClass]: serial kernel cost per multiply-add.
	SerialNsPerMadd [numMatKinds][numMClasses]float64 `json:"serial_ns_per_madd"`
	// PoolDispatchNs: fixed cost of waking the pool for one product.
	PoolDispatchNs float64 `json:"pool_dispatch_ns"`
	// PoolChunkNs: marginal cost per chunk (cursor claim + WaitGroup).
	PoolChunkNs float64 `json:"pool_chunk_ns"`
	// ParallelEff: fraction of linear speedup each extra worker adds
	// (speedup ≈ 1 + eff·(w-1)).
	ParallelEff float64 `json:"parallel_eff"`
	// MeasuredWorkers records the GOMAXPROCS ParallelEff was measured at
	// (0 = not measured).
	MeasuredWorkers int  `json:"measured_workers"`
	Calibrated      bool `json:"calibrated"`
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
	cm := &CostModel{
		PoolDispatchNs: 20000,
		PoolChunkNs:    800,
		ParallelEff:    0.7,
	}
	for kind := matKind(0); kind < numMatKinds; kind++ {
		cm.SerialNsPerMadd[kind] = [numMClasses]float64{0.45, 0.35, 0.28, 0.22, 0.18}
	}
	return cm
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
func (cm *CostModel) plan(kind matKind, m, k, n, procs int) plan {
	work := m * k * n
	workers := procs
	if cpus := effectiveNumCPU(); workers > cpus {
		workers = cpus
	}
	if workers <= 1 || work == 0 {
		return plan{mode: planSerial}
	}
	serialNs := float64(work) * cm.SerialNsPerMadd[kind][mClass(m)]
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

// fuseMargin biases FuseWorthwhile toward fusing: a fused group replaces m
// kernel invocations with one, so even measured per-madd parity favors the
// fused call once the saved call overhead is counted.
const fuseMargin = 1.05

// FuseWorthwhile reports whether fusing m single-row sessions into one
// m-row forward call is predicted no slower than m serial calls, judged by
// the measured serial per-madd cost of m's class against the single-row
// class. The serving scheduler consults it to run a small decode group as m
// one-row forward calls instead of one m-row call — on hosts where the
// small-batch kernels lose to m=1 (cache pressure, blocked-kernel setup),
// this is the measured crossover; elsewhere it always fuses.
func (cm *CostModel) FuseWorthwhile(m int) bool {
	if m <= 1 {
		return true
	}
	return cm.SerialNsPerMadd[kindMatMulT][mClass(m)] <=
		cm.SerialNsPerMadd[kindMatMulT][0]*fuseMargin
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
	serialNs := float64(madds) * cm.SerialNsPerMadd[kindMatMulT][0]
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

// Calibrate measures the kernel cost model on this host: serial ns/madd for
// both kernel kinds across the m-classes, the pool handoff overhead, and
// the parallel efficiency at the current GOMAXPROCS. Takes on the order of
// tens of milliseconds. The returned model is not installed; call
// SetCostModel (or AutoCalibrate, which does both).
func Calibrate() *CostModel {
	cm := DefaultCostModel()
	const k, n = 96, 384 // decode-representative inner/outer widths

	for class, m := range mClassRep {
		a := New(m, k)
		bT := New(n, k) // MatMulT operand: n rows of length k
		b := New(k, n)  // MatMul operand
		out := New(m, n)
		a.Fill(0.5)
		bT.Fill(0.25)
		b.Fill(0.25)
		madds := float64(m * k * n)
		cm.SerialNsPerMadd[kindMatMulT][class] =
			timeOp(func() { matMulTRows(out, a, bT, 0, m) }, 100*time.Microsecond) / madds
		cm.SerialNsPerMadd[kindMatMul][class] =
			timeOp(func() { matMulRows(out, a, b, 0, m, true) }, 100*time.Microsecond) / madds
	}

	// Pool overhead: run a tiny grid through the pool and subtract the
	// serial kernel time. Chunked 8 ways so the per-chunk cost registers.
	{
		m, kk, nn := 4, 64, 64
		a, b, out := New(m, kk), New(nn, kk), New(m, nn)
		a.Fill(0.5)
		b.Fill(0.25)
		const chunks = 8
		chunk := (nn + chunks - 1) / chunks
		serial := timeOp(func() { matMulTRows(out, a, b, 0, m) }, 100*time.Microsecond)
		pooled := timeOp(func() {
			runPooled(kernelMatMulTCols, out, a, b, false, nn, chunk, 0)
		}, 100*time.Microsecond)
		over := pooled - serial
		if over < 1000 {
			over = 1000
		}
		cm.PoolChunkNs = over / chunks
		pooled = timeOp(func() {
			runPooled(kernelMatMulTCols, out, a, b, false, nn, nn/2, 0)
		}, 100*time.Microsecond)
		disp := pooled - serial - 2*cm.PoolChunkNs
		if disp < 2000 {
			disp = 2000
		}
		cm.PoolDispatchNs = disp
	}

	// Parallel efficiency: a large row-split product at the effective
	// worker count. On a single-CPU host there is nothing to measure and
	// ParallelEff is irrelevant (plan() never leaves serial).
	procs := runtime.GOMAXPROCS(0)
	workers := procs
	if cpus := effectiveNumCPU(); workers > cpus {
		workers = cpus
	}
	cm.MeasuredWorkers = workers
	if workers > 1 {
		m, kk, nn := 64, 128, 256
		a, b, out := New(m, kk), New(nn, kk), New(m, nn)
		a.Fill(0.5)
		b.Fill(0.25)
		serial := timeOp(func() { matMulTRows(out, a, b, 0, m) }, 200*time.Microsecond)
		chunk := chunkFor(m, kk*nn, workers)
		pooled := timeOp(func() {
			runPooled(kernelMatMulTRows, out, a, b, false, m, chunk, workers-1)
		}, 200*time.Microsecond)
		speedup := serial / pooled
		eff := (speedup - 1) / float64(workers-1)
		if eff < 0.05 {
			eff = 0.05
		}
		if eff > 1 {
			eff = 1
		}
		cm.ParallelEff = eff
	}
	cm.Calibrated = true
	return cm
}

// AutoCalibrate measures and installs the cost model in one step; binaries
// call it once at startup (after flag parsing, before the hot loops).
func AutoCalibrate() *CostModel {
	cm := Calibrate()
	SetCostModel(cm)
	return cm
}

// calibrationFile is the JSON envelope SaveCalibration writes.
type calibrationFile struct {
	Version int       `json:"version"`
	Model   CostModel `json:"model"`
}

const calibrationVersion = 1

// SaveCalibration writes the installed cost model to path as JSON.
func SaveCalibration(path string) error {
	env := calibrationFile{Version: calibrationVersion, Model: CurrentCostModel()}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadCalibration reads a SaveCalibration file and installs it.
func LoadCalibration(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var env calibrationFile
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("tensor: parsing calibration %s: %w", path, err)
	}
	if env.Version != calibrationVersion {
		return fmt.Errorf("tensor: calibration %s has version %d, want %d", path, env.Version, calibrationVersion)
	}
	m := env.Model
	if m.PoolDispatchNs <= 0 || m.PoolChunkNs <= 0 || m.ParallelEff <= 0 {
		return fmt.Errorf("tensor: calibration %s has non-positive constants", path)
	}
	for kind := range m.SerialNsPerMadd {
		for class, v := range m.SerialNsPerMadd[kind] {
			if v <= 0 {
				return fmt.Errorf("tensor: calibration %s kind %d class %d non-positive", path, kind, class)
			}
		}
	}
	SetCostModel(&m)
	return nil
}
