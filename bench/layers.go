package main

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ft2/internal/abft"
	"ft2/internal/arch"
	"ft2/internal/campaign"
	"ft2/internal/core"
	"ft2/internal/data"
	"ft2/internal/model"
	"ft2/internal/numerics"
	"ft2/internal/prefixcache"
	"ft2/internal/protect"
	"ft2/internal/router"
	"ft2/internal/serve"
	"ft2/internal/tensor"
	"ft2/internal/wire"
)

// Per-layer metrics are measured from outside each layer, by timing calls
// into its public functions, in the traced pass only. Every traced run
// reports every name below; a metric of a layer the workload does not use
// (the router outside cluster_relay, the scheduler in engine_decode) is 0.

// layerSet collects per-layer metrics under their declared units.
type layerSet map[string]metric

func (ls layerSet) put(name, unit string, value float64, n int) {
	ls[name] = metric{Value: value, Unit: unit, N: n}
}

// kindNames are the metric suffixes of the Llama-family layer kinds.
var kindNames = map[model.LayerKind]string{
	model.QProj: "q", model.KProj: "k", model.VProj: "v", model.OutProj: "out",
	model.GateProj: "gate", model.UpProj: "up", model.DownProj: "down",
}

// perLayerNames lists every per-layer metric with its unit; BENCHMARK.json
// declares the same set (stats_test.go compares them).
func perLayerNames() map[string]string {
	names := map[string]string{
		"tensor.matmult_ns.m1": "ns", "tensor.matmult_ns.m8": "ns", "tensor.matmult_ns.m64": "ns",
		"tensor.matmult_ns.m1_f16": "ns", "tensor.gflops.m1": "gflop/s", "tensor.gbps_computed.m1": "GB/s",
		"tensor.rmsnorm_ns": "ns", "tensor.softmax_ns": "ns", "tensor.silu_ns": "ns", "tensor.dotstride_ns.kv128": "ns",

		"model.prefill_ms.r32": "ms", "model.decode_step_us.kv64": "us", "model.decode_step_us.kv200": "us",
		"model.forwardbatch_us_per_row.b8": "us", "model.prefill_chunk_ms.r64": "ms",
		"model.seg_us.readout": "us", "model.seg_sum_over_step": "ratio", "model.hook_dispatch_ratio": "ratio",
		"model.checkpoint_us": "us", "model.restore_us": "us",
		"model.allocs_per_step": "count", "model.bytes_streamed_per_tok": "bytes",

		"core.ft2_step_ratio": "ratio", "core.first_token_profile_ms": "ms", "core.hybrid_time_ratio": "ratio",
		"protect.dmr_time_ratio": "ratio", "abft.checker_time_ratio": "ratio",
		"core.fork_capture_ns": "ns", "core.corrections_per_ktok": "count",

		"serve.queue_ms_p50": "ms", "serve.queue_ms_p95": "ms", "serve.fused_rows_mean": "rows",
		"serve.batch_size_mean": "tok/step", "serve.prefill_chunks_per_req": "count",
		"serve.prefill_computed_frac": "ratio", "serve.submit_us": "us", "serve.refused_429": "count",
		"serve.construct_ms": "ms",

		"prefixcache.hit_rate": "ratio", "prefixcache.hit_rows_frac": "ratio", "prefixcache.evictions": "count",
		"prefixcache.bytes_mb": "MiB", "prefixcache.lookup_ns": "ns", "prefixcache.insert_ns": "ns",

		"wire.encode_us": "us", "wire.decode_us": "us", "wire.blob_kb": "KiB",

		"router.relay_ms_per_req": "ms", "router.relay_us_per_tok": "us", "router.fetches_per_req": "count",
		"router.construct_ms": "ms", "router.migration_ms_p50": "ms", "router.ckpt_resume_frac": "ratio",

		"campaign.trials_s.fork": "1/s", "campaign.trials_s.nofork": "1/s", "campaign.fork_speedup": "ratio",
		"campaign.sdc_count.none": "count", "campaign.sdc_count.ft2": "count",

		"go.allocs_per_tok": "count", "go.gc_pause_ms_total": "ms", "go.goroutines_end": "count",
		"trace_overhead_pct": "%",
	}
	for name, unit := range observed {
		names[name] = unit
	}
	for _, k := range kindNames {
		names["model.seg_us."+k] = "us"
		names["model.linear_ns."+k] = "ns"
		names["core.ft2_kind_ns."+k] = "ns"
	}
	return names
}

// timeBatches calls fn `calls` times per batch and returns the steady
// nanoseconds per call over the batches.
func timeBatches(batches, calls int, fn func()) float64 {
	per := make([]float64, batches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(calls)
	}
	return steady(per)
}

// timePairs times a and b alternately, order flipping each pair, and returns
// their times in nanoseconds pair by pair.
func timePairs(pairs int, a, b func()) (ta, tb []float64) {
	clock := func(fn func()) float64 {
		t0 := time.Now()
		fn()
		return float64(time.Since(t0).Nanoseconds())
	}
	for p := 0; p < pairs; p++ {
		if ft2First(p) {
			tb = append(tb, clock(b))
			ta = append(ta, clock(a))
		} else {
			ta = append(ta, clock(a))
			tb = append(tb, clock(b))
		}
	}
	return ta, tb
}

func tensorLayer(ls layerSet) {
	rng := rand.New(rand.NewSource(1))
	const k, n = 96, 384 // hidden × vocab/FC width of the zoo's 6–7B sims
	w := tensor.New(n, k)
	w.RandNormal(rng, 0.05)
	matmul := func(m int, w *tensor.Tensor) float64 {
		a, out := tensor.New(m, k), tensor.New(m, n)
		a.RandNormal(rng, 1)
		return timeBatches(15, max(1, 256/m), func() { tensor.MatMulTInto(out, a, w) })
	}
	for _, m := range []int{1, 8, 64} {
		ls.put("tensor.matmult_ns.m"+strconv.Itoa(m), "ns", matmul(m, w), 15)
	}
	m1 := ls["tensor.matmult_ns.m1"].Value
	ls.put("tensor.gflops.m1", "gflop/s", 2*k*n/m1, 15)
	// Bytes are computed from the tensor sizes (weights, input row, output
	// row), not measured.
	ls.put("tensor.gbps_computed.m1", "GB/s", 4*(n*k+k+n)/m1, 15)
	w16 := w.Clone()
	w16.PackF16()
	ls.put("tensor.matmult_ns.m1_f16", "ns", matmul(1, w16), 15)

	x, out := tensor.New(1, k), tensor.New(1, k)
	x.RandNormal(rng, 1)
	gamma := make([]float32, k)
	for i := range gamma {
		gamma[i] = 1
	}
	ls.put("tensor.rmsnorm_ns", "ns", timeBatches(15, 512, func() { tensor.RMSNormInto(out, x, gamma, 1e-5) }), 15)

	scores, src := tensor.New(8, 128), tensor.New(8, 128) // 8 heads × 128 positions
	src.RandNormal(rng, 1)
	ls.put("tensor.softmax_ns", "ns", timeBatches(15, 64, func() {
		copy(scores.Data, src.Data)
		scores.MarkMutated()
		tensor.SoftmaxRows(scores)
	}), 15)

	gate, gsrc := tensor.New(1, 264), tensor.New(1, 264) // llama2-7b-sim FFN width
	gsrc.RandNormal(rng, 1)
	ls.put("tensor.silu_ns", "ns", timeBatches(15, 256, func() {
		copy(gate.Data, gsrc.Data)
		gate.MarkMutated()
		tensor.SiLU(gate)
	}), 15)

	const d, kv = 12, 128 // head dim, cached positions
	q, slab, dst := make([]float32, d), make([]float32, kv*d), make([]float32, kv)
	for i := range slab {
		slab[i] = float32(rng.NormFloat64())
	}
	ls.put("tensor.dotstride_ns.kv128", "ns", timeBatches(15, 512, func() { tensor.DotStride(dst, q, slab, d, kv, 0.29) }), 15)
}

// decodeWindow returns a function that restores snap into m and runs `steps`
// decode steps: the fixed unit the paired protection ratios time.
func decodeWindow(m *model.Model, snap *model.Snapshot, steps int) func() {
	return func() {
		tok := m.Restore(snap)
		for s := 0; s < steps; s++ {
			tok = m.DecodeStep(tok)
		}
	}
}

const windowSteps = 16

func modelLayer(ls layerSet) error {
	cfg, err := model.ConfigByName(serveModel)
	if err != nil {
		return err
	}
	m, err := model.New(cfg, weightSeed, numerics.FP16)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2))
	long := prompt(rng, 200)

	ls.put("model.prefill_ms.r32", "ms", timeBatches(15, 2, func() { m.Prefill(long[:32]) })/1e6, 15)

	// A decode step at a given cache depth: prefill to depth−4 untimed, then
	// time 8 steps, whose mean depth is the nominal one.
	stepAt := func(depth int) float64 {
		per := make([]float64, 15)
		for b := range per {
			tok := m.Prefill(long[:depth-4])
			t0 := time.Now()
			for s := 0; s < 8; s++ {
				tok = m.DecodeStep(tok)
			}
			per[b] = float64(time.Since(t0).Nanoseconds()) / 8
		}
		return steady(per)
	}
	step64 := stepAt(64)
	ls.put("model.decode_step_us.kv64", "us", step64/1e3, 15)
	ls.put("model.decode_step_us.kv200", "us", stepAt(200)/1e3, 15)

	ls.put("model.prefill_chunk_ms.r64", "ms", timeBatches(15, 2, func() {
		m.BeginPrefill(128)
		m.PrefillChunk(long[:64])
	})/1e6, 15)

	// Eight decoding sessions fused into one ForwardBatch call per step.
	const b = 8
	own := m.State()
	items := make([]model.BatchItem, b)
	for i := range items {
		st := m.NewDecodeState()
		m.SwapState(st)
		items[i] = model.BatchItem{State: st, Tok: m.Prefill(prompt(rng, 32))}
	}
	m.SwapState(own)
	dst := make([]int, 0, b)
	perRow := make([]float64, 15)
	for r := range perRow { // 4 fused steps per batch: depths 32..92 over the run
		t0 := time.Now()
		for s := 0; s < 4; s++ {
			dst = m.ForwardBatch(items, dst[:0])
			for i := range items {
				items[i].Tok = dst[i]
			}
		}
		perRow[r] = float64(time.Since(t0).Nanoseconds()) / (4 * b)
	}
	ls.put("model.forwardbatch_us_per_row.b8", "us", steady(perRow)/1e3, 15)

	// Segments of one decode step: the time between consecutive fires of a
	// hook this benchmark registers, attributed to the layer kind that fired
	// (so a segment holds the linear product and whatever ran before it since
	// the previous linear: norms, rotary, attention, activation). What follows
	// the last fire is the readout.
	var seg [model.NumLayerKinds]time.Duration
	var last time.Time
	hook := func(ctx model.HookCtx, _ *tensor.Tensor) {
		t := time.Now()
		seg[ctx.Layer.Kind] += t.Sub(last)
		last = t
	}
	const segSteps = 8
	perKind := map[model.LayerKind][]float64{}
	var readout, summed, whole []float64
	h := m.RegisterHook(hook)
	for rep := 0; rep < 15; rep++ {
		tok := m.Prefill(long[:60])
		seg = [model.NumLayerKinds]time.Duration{}
		var ro time.Duration
		t0 := time.Now()
		for s := 0; s < segSteps; s++ {
			last = time.Now()
			tok = m.DecodeStep(tok)
			ro += time.Since(last)
		}
		whole = append(whole, float64(time.Since(t0).Nanoseconds())/segSteps)
		total := ro
		for k := range kindNames {
			perKind[k] = append(perKind[k], float64(seg[k].Nanoseconds())/segSteps)
			total += seg[k]
		}
		readout = append(readout, float64(ro.Nanoseconds())/segSteps)
		summed = append(summed, float64(total.Nanoseconds())/segSteps)
	}
	m.RemoveHook(h)
	ls.put("model.seg_us.readout", "us", steady(readout)/1e3, 15)
	for k, name := range kindNames {
		ls.put("model.seg_us."+name, "us", steady(perKind[k])/1e3, 15)
	}
	// The segments' sum against the wall time of the same (hooked) steps:
	// 1 when no part of the step escapes attribution. What a registered hook
	// costs a step is model.hook_dispatch_ratio.
	ls.put("model.seg_sum_over_step", "ratio", pairedRatio(summed, whole), 15)

	for k, name := range kindNames {
		x, out := tensor.New(1, cfg.InDim(k)), tensor.New(1, cfg.OutDim(k))
		x.RandNormal(rng, 1)
		ref := model.LayerRef{Block: 0, Kind: k}
		ls.put("model.linear_ns."+name, "ns", timeBatches(15, 256, func() { m.RecomputeLinearInto(out, ref, x) }), 15)
	}

	// Checkpoint and restore of a 48-row session.
	tok := m.Prefill(long[:32])
	for s := 0; s < 16; s++ {
		tok = m.DecodeStep(tok)
	}
	var snap model.Snapshot
	ls.put("model.checkpoint_us", "us", timeBatches(15, 64, func() { m.Checkpoint(&snap) })/1e3, 15)
	ls.put("model.restore_us", "us", timeBatches(15, 64, func() { m.Restore(&snap) })/1e3, 15)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for s := 0; s < 64; s++ {
		tok = m.DecodeStep(tok)
	}
	runtime.ReadMemStats(&ms1)
	ls.put("model.allocs_per_step", "count", float64(ms1.Mallocs-ms0.Mallocs)/64, 64)

	// Computed, not measured: every linear weight and the tied LM head once,
	// plus the K and V rows of a 64-deep cache, in float32.
	bytes := cfg.Vocab * cfg.Hidden
	for _, ref := range cfg.LinearLayers() {
		bytes += cfg.InDim(ref.Kind) * cfg.OutDim(ref.Kind)
	}
	bytes += cfg.Blocks * 2 * 64 * cfg.Hidden
	ls.put("model.bytes_streamed_per_tok", "bytes", float64(4*bytes), 1)
	return nil
}

// hybridPolicy is the fixed literal policy core.hybrid_time_ratio runs: K/Q
// unprotected, every other kind checksum repair plus range clamp.
var hybridPolicy = &protect.Policy{Tiers: map[model.LayerKind]protect.Tier{
	model.KProj: protect.TierNone, model.QProj: protect.TierNone,
	model.VProj: protect.TierABFTFT2, model.OutProj: protect.TierABFTFT2,
	model.UpProj: protect.TierABFTFT2, model.GateProj: protect.TierABFTFT2,
	model.DownProj: protect.TierABFTFT2,
}}

func protectionLayers(ls layerSet) error {
	cfg, err := model.ConfigByName(serveModel)
	if err != nil {
		return err
	}
	m, err := model.New(cfg, weightSeed, numerics.FP16)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(3))
	p32 := prompt(rng, 32)
	const pairs, kindPairs = 96, 32

	// hooked wraps a decode window with a hook's install and removal. The
	// controller profiles its bounds in one protected prefill beforehand.
	var snap model.Snapshot
	m.Prefill(p32)
	m.Checkpoint(&snap)
	bare := decodeWindow(m, &snap, windowSteps)
	ratio := func(pairs int, install func() func()) (r float64, extraNsPerStep float64) {
		window := func() {
			remove := install()
			bare()
			remove()
		}
		tb, tp := timePairs(pairs, bare, window)
		diff := make([]float64, len(tb))
		for i := range diff {
			diff[i] = (tp[i] - tb[i]) / windowSteps
		}
		return pairedRatio(tp, tb), median(diff)
	}
	profiled := func(f *core.FT2) {
		f.Install()
		f.Reset()
		m.Prefill(p32)
		f.Detach()
	}
	viaFT2 := func(f *core.FT2) func() func() {
		return func() func() { f.Install(); return f.Detach }
	}
	viaHook := func(h model.Hook) func() func() {
		return func() func() { id := m.RegisterHook(h); return func() { m.RemoveHook(id) } }
	}

	// A registered hook that does nothing: what dispatching hooks costs a
	// step before any protection runs in them.
	r, _ := ratio(pairs, viaHook(func(model.HookCtx, *tensor.Tensor) {}))
	ls.put("model.hook_dispatch_ratio", "ratio", r, pairs)

	f := core.New(m, core.Defaults())
	profiled(f)
	r, _ = ratio(pairs, viaFT2(f))
	ls.put("core.ft2_step_ratio", "ratio", r, pairs)
	for k, name := range kindNames {
		fk := core.NewWithKinds(m, core.Defaults(), k)
		profiled(fk)
		_, extra := ratio(kindPairs, viaFT2(fk))
		ls.put("core.ft2_kind_ns."+name, "ns", extra, kindPairs)
	}

	tb, tp := timePairs(pairs, func() { m.Prefill(p32) }, func() {
		f.Install()
		f.Reset()
		m.Prefill(p32)
		f.Detach()
	})
	diff := make([]float64, len(tb))
	for i := range diff {
		diff[i] = (tp[i] - tb[i]) / 1e6
	}
	ls.put("core.first_token_profile_ms", "ms", median(diff), pairs)

	hy := core.NewHybrid(m, core.Defaults(), hybridPolicy, nil)
	hy.Install()
	hy.Reset()
	m.Prefill(p32)
	hy.Detach()
	r, _ = ratio(pairs, func() func() { hy.Install(); return hy.Detach })
	ls.put("core.hybrid_time_ratio", "ratio", r, pairs)

	r, _ = ratio(pairs, viaHook(protect.NewDMR(m).Hook()))
	ls.put("protect.dmr_time_ratio", "ratio", r, pairs)
	r, _ = ratio(pairs, viaHook(abft.NewLinearChecker(m, abft.CaptureRefSums(m)).Hook()))
	ls.put("abft.checker_time_ratio", "ratio", r, pairs)

	ls.put("core.fork_capture_ns", "ns", timeBatches(15, 64, func() { f.CaptureForkState() }), 15)

	// The wire envelope of a protected 48-row session.
	profiled(f)
	f.Install()
	tok := m.Prefill(p32)
	for s := 0; s < 16; s++ {
		tok = m.DecodeStep(tok)
	}
	f.Detach()
	m.Checkpoint(&snap)
	fork := f.CaptureForkState()
	blob, err := wire.EncodeSession(&snap, &fork)
	if err != nil {
		return err
	}
	ls.put("wire.blob_kb", "KiB", float64(len(blob))/1024, 1)
	ls.put("wire.encode_us", "us", timeBatches(15, 16, func() { wire.EncodeSession(&snap, &fork) })/1e3, 15)
	ls.put("wire.decode_us", "us", timeBatches(15, 16, func() { wire.DecodeSession(blob) })/1e3, 15)
	return nil
}

// prefixCacheLayer times direct Insert and Lookup calls on a cache filled
// with the workload's own prompts.
func prefixCacheLayer(ls layerSet, reqs []request) error {
	cfg, err := model.ConfigByName(serveModel)
	if err != nil {
		return err
	}
	m, err := model.New(cfg, weightSeed, numerics.FP16)
	if err != nil {
		return err
	}
	var prompts [][]int
	seen := map[uint64]bool{}
	for _, rq := range reqs {
		if h := listHash([]request{{Prompt: rq.Prompt}}); !seen[h] && len(prompts) < 32 {
			seen[h] = true
			prompts = append(prompts, rq.Prompt)
		}
	}
	cache := prefixcache.New(16 << 20)
	insert := make([]float64, len(prompts))
	for i, p := range prompts {
		m.Prefill(p)
		snap := new(model.Snapshot) // the cache takes ownership
		m.Checkpoint(snap)
		t0 := time.Now()
		cache.Insert(p, snap, nil, true)
		insert[i] = float64(time.Since(t0).Nanoseconds())
	}
	ls.put("prefixcache.insert_ns", "ns", steady(insert), len(insert))
	ls.put("prefixcache.lookup_ns", "ns", timeBatches(15, 4, func() {
		for _, p := range prompts {
			if ref := cache.Lookup(p, false); ref != nil {
				ref.Release()
			}
		}
	})/float64(len(prompts)), 15)
	return nil
}

func constructLayers(ls layerSet) error {
	const n = 15
	took := make([]float64, n)
	for i := range took {
		t0 := time.Now()
		srv, err := serve.New(serveConfig())
		took[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		srv.Shutdown(context.Background())
	}
	ls.put("serve.construct_ms", "ms", median(took), n)
	for i := range took {
		t0 := time.Now()
		// Nothing listens on these ports: the probers fail at once.
		rt, err := router.New(router.Config{Workers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}})
		took[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			return err
		}
		rt.Close()
	}
	ls.put("router.construct_ms", "ms", median(took), n)
	return nil
}

// campaignLayer runs the 96-trial fault-injection cells of BENCH_decode.json
// with fixed seeds: the SDC counts must repeat exactly and agree between the
// forked and the unforked engine.
func campaignLayer(ls layerSet, notes *[]string) error {
	cfg, err := model.ConfigByName(serveModel)
	if err != nil {
		return err
	}
	ds, err := data.ByName("squad-sim", 1)
	if err != nil {
		return err
	}
	const trials = 96
	rate := map[bool][]float64{}
	for _, method := range []arch.Method{arch.MethodNone, arch.MethodFT2} {
		var sdc [2]int
		for i, noFork := range []bool{false, true} {
			t0 := time.Now()
			res, err := campaign.Run(campaign.Spec{
				ModelCfg: cfg, ModelSeed: weightSeed, DType: numerics.FP16,
				Fault: numerics.ExponentBit, Method: method, FT2Opts: core.Defaults(),
				Dataset: ds, Trials: trials, BaseSeed: 1042, NoFork: noFork,
			})
			if err != nil {
				return err
			}
			rate[noFork] = append(rate[noFork], trials/time.Since(t0).Seconds())
			sdc[i] = res.SDC.Successes
		}
		if sdc[0] != sdc[1] {
			*notes = append(*notes, "campaign: fork and no-fork SDC counts differ for "+method.String())
		}
		name := "campaign.sdc_count.none"
		if method == arch.MethodFT2 {
			name = "campaign.sdc_count.ft2"
		}
		ls.put(name, "count", float64(sdc[0]), trials)
	}
	fork, noFork := median(rate[false]), median(rate[true])
	ls.put("campaign.trials_s.fork", "1/s", fork, trials)
	ls.put("campaign.trials_s.nofork", "1/s", noFork, trials)
	ls.put("campaign.fork_speedup", "ratio", fork/noFork, trials)
	return nil
}

// counters are cumulative counts a system exposes; the traced pass reports
// their growth over its blocks.
type counters map[string]float64

// counted is implemented by systems with a scheduler: the serve layer's own
// /metrics page, PrefillCounters and PrefixStats, read through the public API.
type counted interface{ counters() counters }

func serverCounters(srv *serve.Server, into counters) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
			into[name] += v
		}
	}
	prefill, promptToks, chunks := srv.PrefillCounters()
	into["prefill_computed"] += float64(prefill)
	into["prompt_tokens"] += float64(promptToks)
	into["prefill_chunks"] += float64(chunks)
	ps := srv.PrefixStats()
	into["prefix_hits"] += float64(ps.Hits)
	into["prefix_misses"] += float64(ps.Misses)
	into["prefix_evictions"] += float64(ps.Evictions)
	into["prefix_hit_rows"] += float64(ps.HitRows)
	into["prefix_bytes"] = float64(ps.Bytes) // a level, not a count
}

func (s *serveSystem) counters() counters {
	c := counters{}
	serverCounters(s.srv, c)
	return c
}

func (cs *clusterSystem) counters() counters {
	c := counters{}
	for _, w := range cs.workers {
		serverCounters(w.srv, c)
	}
	st := cs.rt.Stats()
	c["router_fetches"] = float64(st.CheckpointFetches)
	c["router_sessions"] = float64(st.Sessions)
	return c
}

// tracedPass is the --trace 1 run: one cold start, a few protected blocks
// alternately untraced and traced, then the per-layer measurements. It
// reports every per-layer metric and no end-to-end one.
func (r *runner) tracedPass(doc *document) error {
	sys, _, err := r.coldStart()
	if err != nil {
		return err
	}
	ls := layerSet{}
	tr := &tracer{}
	var before counters
	if c, ok := sys.(counted); ok {
		before = c.counters()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	// Pairs of protected blocks, one untraced and one traced, order
	// alternating: two passes over the list, at least six pairs.
	rounds := max(6, 2*r.w.pieces)
	var plain []blockStat
	var traced, untraced []float64
	var lat latencies
	tokens, corrections, refused, requests := 0, 0, 0, 0
	for round := 0; round < rounds; round++ {
		order := [2]*tracer{nil, tr}
		if round%2 == 1 {
			order = [2]*tracer{tr, nil}
		}
		for _, t := range order {
			tr.block++
			st := r.block(sys, round, true, t)
			if t == nil {
				plain, untraced = append(plain, st), append(untraced, st.wall)
			} else {
				traced = append(traced, st.wall)
			}
			lat.merge(&st.lat)
			tokens += st.tokens
			corrections += st.corr
			refused += st.refused
			requests += len(r.reqs) / r.w.pieces
		}
	}
	runtime.ReadMemStats(&ms1)
	ls.put("trace_overhead_pct", "%", 100*(pairedRatio(traced, untraced)-1), rounds)
	// The caller-visible timings, from the untraced blocks.
	seen, _ := observe(plain)
	for name, m := range seen {
		ls[name] = m
	}
	ls.put("go.allocs_per_tok", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(tokens), tokens)
	ls.put("core.corrections_per_ktok", "count", 1000*float64(corrections)/float64(tokens), tokens)
	ls.put("serve.refused_429", "count", float64(refused), requests)

	if c, ok := sys.(counted); ok {
		after := c.counters()
		d := func(name string) float64 { return after[name] - before[name] }
		div := func(a, b float64) float64 {
			if b == 0 {
				return 0
			}
			return a / b
		}
		q := sorted(lat.queue)
		p50, _ := percentile(q, 0.50)
		p95, _ := percentile(q, 0.95)
		ls.put("serve.queue_ms_p50", "ms", p50, len(q))
		ls.put("serve.queue_ms_p95", "ms", p95, len(q))
		ls.put("serve.fused_rows_mean", "rows",
			div(d("ft2serve_prefill_fused_rows_total")+d("ft2serve_decode_fused_rows_total"), d("ft2serve_fused_forwards_total")), int(d("ft2serve_fused_forwards_total")))
		ls.put("serve.batch_size_mean", "tok/step", div(d("ft2serve_tokens_generated_total"), d("ft2serve_batched_steps_total")), int(d("ft2serve_batched_steps_total")))
		ls.put("serve.prefill_chunks_per_req", "count", div(d("prefill_chunks"), float64(requests)), requests)
		ls.put("serve.prefill_computed_frac", "ratio", div(d("prefill_computed"), d("prompt_tokens")), int(d("prompt_tokens")))
		lookups := d("prefix_hits") + d("prefix_misses")
		ls.put("prefixcache.hit_rate", "ratio", div(d("prefix_hits"), lookups), int(lookups))
		ls.put("prefixcache.hit_rows_frac", "ratio", div(d("prefix_hit_rows"), d("prompt_tokens")), int(d("prompt_tokens")))
		ls.put("prefixcache.evictions", "count", d("prefix_evictions"), int(lookups))
		ls.put("prefixcache.bytes_mb", "MiB", after["prefix_bytes"]/(1<<20), 1)
		ls.put("router.fetches_per_req", "count", div(d("router_fetches"), d("router_sessions")), int(d("router_sessions")))
	}
	if cs, ok := sys.(*clusterSystem); ok {
		r.routerLayer(cs, ls, tr)
	}
	sys.close()
	ls.put("go.gc_pause_ms_total", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, int(ms1.NumGC-ms0.NumGC))
	ls.put("go.goroutines_end", "count", float64(runtime.NumGoroutine()), 1)

	self := tr.selfTimes()
	if n := tr.count("serve.submit"); n > 0 {
		ls.put("serve.submit_us", "us", 1e3*self["serve.submit"]/float64(n), n)
	}
	doc.SelfTimeMS = self
	doc.TraceFile = "bench/out/trace-" + r.w.name + ".json"
	if err := tr.write(doc.TraceFile); err != nil {
		return err
	}

	tensorLayer(ls)
	for _, layer := range []func(layerSet) error{modelLayer, protectionLayers, constructLayers} {
		if err := layer(ls); err != nil {
			return err
		}
	}
	if err := prefixCacheLayer(ls, r.reqs); err != nil {
		return err
	}
	if err := campaignLayer(ls, &doc.Notes); err != nil {
		return err
	}
	for name, unit := range perLayerNames() {
		if _, ok := ls[name]; !ok {
			ls.put(name, unit, 0, 0) // a layer this workload does not use
		}
	}
	doc.Rounds = rounds
	doc.Metrics = ls
	return nil
}

// routerLayer measures what only the cluster has: the relay's cost against
// the same requests sent straight to a worker (one client, so placement does
// not matter), and failover under ten scripted worker kills.
func (r *runner) routerLayer(cs *clusterSystem, ls layerSet, tr *tracer) {
	lo, hi := r.piece(0)
	n := hi - lo
	msPerReq := func(base string) float64 {
		st := r.pass(lo, hi, true, func(reqs []request, out []obs) { cs.runVia(base, 1, reqs, true, out, nil) })
		return 1e3 * st.wall / float64(n)
	}
	var direct, relayed []float64
	for rep := 0; rep < 4; rep++ {
		direct = append(direct, msPerReq(cs.workers[rep%2].ts.URL))
		relayed = append(relayed, msPerReq(cs.front.URL))
	}
	relay := steady(relayed) - steady(direct)
	ls.put("router.relay_ms_per_req", "ms", relay, 4*n)
	ls.put("router.relay_us_per_tok", "us", 1e3*relay*float64(n)/float64(outputTokens(r.reqs[lo:hi])), 4*n)

	// Ten kills, alternating workers: each snaps the victim's streams, the
	// router resumes them on the survivor, and every answer is still checked.
	before := cs.rt.Stats()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 10; k++ {
			w := cs.workers[k%2]
			time.Sleep(60 * time.Millisecond)
			w.kill()
			time.Sleep(60 * time.Millisecond)
			w.revive()
			cs.waitHealthy(len(cs.workers))
		}
	}()
	for k, killing := 0, true; killing; k++ {
		tr.block++
		r.block(cs, k, true, tr)
		select {
		case <-done:
			killing = false
		default:
		}
	}
	after := cs.rt.Stats()
	migr := after.Migrations - before.Migrations
	lat := after.MigrationLatenciesM[len(before.MigrationLatenciesM):]
	ls.put("router.migration_ms_p50", "ms", median(lat), len(lat))
	if migr > 0 {
		ls.put("router.ckpt_resume_frac", "ratio", float64(after.CheckpointResumes-before.CheckpointResumes)/float64(migr), int(migr))
	}
}
