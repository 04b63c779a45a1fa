package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricDef names one end-to-end metric, its unit and the share of the
// parent's median by which it may worsen before a change is a regression.
// BENCHMARK.json carries the same table; stats_test.go holds them together.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the gated metrics. Every absolute timing the issue proposed
// (tok_s, ttft_ms_p50, ttft_ms_p90, tpot_ms_p50, itl_ms_p95, cpu_ms_per_tok)
// was measured over ten seeds per workload on the reference box and did not
// repeat within 0.10 on all four workloads, whatever the estimator (README,
// "Repeatability"); following the issue they are reported as per-layer
// metrics under the same names instead of being given a wider bound. What
// repeats is what is measured against itself within a run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ft2_time_ratio", "ratio", "lower", 0.10},
	{"live_heap_mb", "MiB", "lower", 0.05},
}

// observed are the caller-visible timings, reported by both kinds of run but
// bounded by neither: the demoted end-to-end metrics.
var observed = map[string]string{
	"tok_s": "tok/s", "ttft_ms_p50": "ms", "ttft_ms_p90": "ms",
	"tpot_ms_p50": "ms", "itl_ms_p95": "ms", "cpu_ms_per_tok": "ms",
}

// coldStarts is how many times set-up is repeated; setup_s is their median.
// The first system built is the one the timed phase measures.
const coldStarts = 7

// metric is one reported value with what is needed to judge it: the number
// of samples behind it, and the inter-quartile spread of its per-block values
// as a share of their median.
type metric struct {
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	N          int     `json:"n"`
	Spread     float64 `json:"block_iqr_over_median"`
	Bound      float64 `json:"bound,omitempty"`
	Noisy      bool    `json:"noisy"`
	Percentile float64 `json:"percentile_used,omitempty"`
}

// runner holds one workload's inputs, expected outputs and the running
// count of operations checked.
type runner struct {
	w    *workload
	reqs []request
	want [2][][]int // expected tokens per request: [0] unprotected, [1] FT2
	out  []obs

	ops, failed int
	firstFail   string
}

func newRunner(w *workload, seed int64) (*runner, error) {
	r := &runner{w: w, reqs: w.requests(seed)}
	if len(r.reqs)%w.pieces != 0 {
		return nil, fmt.Errorf("%s: %d requests do not cut into %d equal blocks", w.name, len(r.reqs), w.pieces)
	}
	r.out = make([]obs, len(r.reqs))
	for i, rq := range r.reqs {
		if len(rq.Prompt)+rq.Out > maxSeq {
			return nil, fmt.Errorf("%s: request %d needs %d positions, MaxSeq is %d", w.name, i, len(rq.Prompt)+rq.Out, maxSeq)
		}
		r.out[i].at = make([]time.Duration, 0, rq.Out)
		r.out[i].toks = make([]int, 0, rq.Out)
	}
	return r, r.oracle()
}

// oracle computes, outside every timed block, what each distinct request
// must answer: a serial GenerateInto on a dedicated model, bare and under
// FT2. Served outputs are compared with it token for token.
func (r *runner) oracle() error {
	first := map[uint64]int{} // distinct request -> first index carrying it
	var distinct []int
	same := make([]int, len(r.reqs))
	for i, rq := range r.reqs {
		h := listHash([]request{rq})
		j, ok := first[h]
		if !ok {
			j, first[h] = i, i
			distinct = append(distinct, i)
		}
		same[i] = j
	}
	for mode := range r.want {
		r.want[mode] = make([][]int, len(r.reqs))
	}
	// Two oracle workers (one per core), each with its own models.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for part := range errs {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			gen, err := r.w.oracle()
			for k := part; k < len(distinct) && err == nil; k += len(errs) {
				i := distinct[k]
				for mode := 0; mode < 2 && err == nil; mode++ {
					r.want[mode][i], err = gen(r.reqs[i], mode == 1)
				}
			}
			errs[part] = err
		}(part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
	}
	for i, j := range same {
		r.want[0][i], r.want[1][i] = r.want[0][j], r.want[1][j]
	}
	return nil
}

// piece returns the bounds of piece k of the request list. A block is one
// piece; round k runs piece k mod pieces in both modes, so the two blocks of
// a round run the same requests and every block costs the same arithmetic.
func (r *runner) piece(k int) (lo, hi int) {
	n := len(r.reqs) / r.w.pieces
	lo = (k % r.w.pieces) * n
	return lo, lo + n
}

// blockStat is one pass over one piece of the request list in one mode.
type blockStat struct {
	wall, cpu float64 // seconds
	tokens    int
	lat       latencies
	refused   int
	corr      int
}

// pass runs requests [lo,hi) once through run, from a collected heap, and
// checks every answer against the oracle of the given mode. Every block, every
// warm-up and every side measurement goes through here.
func (r *runner) pass(lo, hi int, protected bool, run func(reqs []request, out []obs)) blockStat {
	out := r.out[lo:hi]
	for i := range out {
		out[i].reset()
	}
	mode := 0
	if protected {
		mode = 1
	}
	runtime.GC()
	cpu0, t0 := cpuSeconds(), time.Now()
	run(r.reqs[lo:hi], out)
	st := blockStat{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	st.tokens = r.check(out, r.want[mode][lo:hi], mode)
	st.lat.add(out)
	for i := range out {
		st.refused += out[i].refused
		st.corr += out[i].corr
	}
	return st
}

// block runs piece k once on sys.
func (r *runner) block(sys system, k int, protected bool, tr *tracer) blockStat {
	lo, hi := r.piece(k)
	return r.pass(lo, hi, protected, func(reqs []request, out []obs) { sys.run(reqs, protected, out, tr) })
}

// check compares each answer with the oracle's for the given mode
// (0 unprotected, 1 FT2), counts operations and failures, and returns the
// number of tokens received.
func (r *runner) check(out []obs, want [][]int, mode int) (tokens int) {
	for i := range out {
		o := &out[i]
		tokens += len(o.toks)
		r.ops++
		if why := mismatch(o, want[i]); why != "" {
			r.failed++
			if r.firstFail == "" {
				r.firstFail = fmt.Sprintf("request %d (mode %d): %s", i, mode, why)
			}
		}
	}
	return tokens
}

func mismatch(o *obs, want []int) string {
	if o.err != nil {
		return o.err.Error()
	}
	if len(o.toks) != len(want) {
		return fmt.Sprintf("%d tokens, oracle has %d", len(o.toks), len(want))
	}
	for j := range want {
		if o.toks[j] != want[j] {
			return fmt.Sprintf("token %d is %d, oracle has %d", j, o.toks[j], want[j])
		}
	}
	return ""
}

// coldStart builds the system and runs the fixed warm-up script: a quarter
// of the request list unprotected, then the same quarter protected.
func (r *runner) coldStart() (system, float64, error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := r.w.build()
	if err != nil {
		return nil, 0, err
	}
	for _, protected := range []bool{false, true} {
		r.pass(0, len(r.reqs)/4, protected, func(reqs []request, out []obs) { sys.run(reqs, protected, out, nil) })
	}
	return sys, time.Since(t0).Seconds(), nil
}

// latencies are what callers saw, in milliseconds.
type latencies struct {
	ttft, tpot, itl, queue []float64
}

func (l *latencies) add(out []obs) {
	const ms = float64(time.Millisecond)
	for i := range out {
		o := &out[i]
		if o.err != nil || len(o.at) == 0 {
			continue
		}
		l.ttft = append(l.ttft, float64(o.at[0]-o.issued)/ms)
		if n := len(o.at); n > 1 {
			l.tpot = append(l.tpot, float64(o.at[n-1]-o.at[0])/ms/float64(n-1))
		}
		for j := 1; j < len(o.at); j++ {
			l.itl = append(l.itl, float64(o.at[j]-o.at[j-1])/ms)
		}
		l.queue = append(l.queue, o.queueMS)
	}
}

func (l *latencies) merge(o *latencies) {
	l.ttft = append(l.ttft, o.ttft...)
	l.tpot = append(l.tpot, o.tpot...)
	l.itl = append(l.itl, o.itl...)
	l.queue = append(l.queue, o.queue...)
}

// timed is what the timed phase recorded: the blocks of each mode by round,
// and the duration of every cold start.
type timed struct {
	none, ft2 []blockStat
	setup     []float64
}

// measure runs rounds of one unprotected and one protected block over the
// same piece, order alternating, until `seconds` have passed (whole rounds,
// at least minRounds). The first round is run and checked but not recorded:
// it still finds the warm-up's prompts in the prefix cache.
//
// Set-up is measured here too. sys is the first cold start, which took
// `first` seconds; the other coldStarts-1 build, warm and discard a system of
// their own between rounds, evenly spaced over the phase. A slow spell on a
// shared machine lasts seconds: seven set-ups in a row would all fall inside
// one or outside it, and their median would not repeat.
func (r *runner) measure(sys system, first, seconds float64) (*timed, error) {
	t := &timed{setup: []float64{first}}
	extraStart := func() error {
		extra, took, err := r.coldStart()
		if err != nil {
			return err
		}
		extra.close()
		t.setup = append(t.setup, took)
		return nil
	}
	start := time.Now()
	for round := 0; ; round++ {
		roundStart := time.Now()
		order := [2]bool{false, true}
		if ft2First(round) {
			order = [2]bool{true, false}
		}
		for _, protected := range order {
			st := r.block(sys, round, protected, nil)
			switch {
			case round == 0:
			case protected:
				t.ft2 = append(t.ft2, st)
			default:
				t.none = append(t.none, st)
			}
		}
		took := time.Since(roundStart).Seconds()
		elapsed := time.Since(start).Seconds()
		if len(t.ft2) >= minRounds && elapsed+took/2 >= seconds {
			break
		}
		if due := float64(len(t.setup)) * seconds / coldStarts; len(t.setup) < coldStarts && elapsed >= due {
			if err := extraStart(); err != nil {
				return nil, err
			}
		}
	}
	for len(t.setup) < coldStarts { // rounds so long that some were never due
		if err := extraStart(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// minRounds is the least number of recorded rounds, however short the run.
const minRounds = 8

// observe reduces protected blocks to the caller-visible timings.
//
// Interference on a shared machine only adds time, so the values that repeat
// best from run to run are the fast ones: throughput and CPU cost are taken
// from the best block, and latency percentiles pool the samples of the clean
// (fastest-quarter) blocks. per returns each block's own value, in run order.
func observe(blocks []blockStat) (ms map[string]metric, per map[string][]float64) {
	per = map[string][]float64{}
	pct := func(xs []float64, p float64) float64 { v, _ := percentile(sorted(xs), p); return v }
	for _, b := range blocks {
		per["ft2_block_s"] = append(per["ft2_block_s"], b.wall)
		per["tok_s"] = append(per["tok_s"], float64(b.tokens)/b.wall)
		per["cpu_ms_per_tok"] = append(per["cpu_ms_per_tok"], b.cpu*1e3/float64(b.tokens))
		per["ttft_ms_p50"] = append(per["ttft_ms_p50"], pct(b.lat.ttft, 0.50))
		per["ttft_ms_p90"] = append(per["ttft_ms_p90"], pct(b.lat.ttft, 0.90))
		per["tpot_ms_p50"] = append(per["tpot_ms_p50"], pct(b.lat.tpot, 0.50))
		per["itl_ms_p95"] = append(per["itl_ms_p95"], pct(b.lat.itl, 0.95))
	}
	var clean latencies
	for _, i := range cleanBlocks(blocks) {
		clean.merge(&blocks[i].lat)
	}
	ms = map[string]metric{}
	put := func(name string, value float64, n int, pctUsed float64) {
		ms[name] = metric{Value: value, Unit: observed[name], N: n, Spread: spread(per[name]), Percentile: pctUsed}
	}
	pooled := func(name string, xs []float64, p float64) {
		asc := sorted(xs)
		v, used := percentile(asc, p)
		put(name, v, len(asc), used)
	}
	put("tok_s", slices.Max(per["tok_s"]), len(blocks), 0)
	put("cpu_ms_per_tok", slices.Min(per["cpu_ms_per_tok"]), len(blocks), 0)
	pooled("ttft_ms_p50", clean.ttft, 0.50)
	pooled("ttft_ms_p90", clean.ttft, 0.90)
	pooled("tpot_ms_p50", clean.tpot, 0.50)
	pooled("itl_ms_p95", clean.itl, 0.95)
	return ms, per
}

// cleanBlocks returns the indexes of the fastest quarter of the blocks (at
// least four): those least disturbed by whatever else the machine was doing.
func cleanBlocks(blocks []blockStat) []int {
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return blocks[order[a]].wall < blocks[order[b]].wall })
	return order[:min(len(order), max(4, len(order)/4))]
}

// gated builds one end-to-end metric from its value and per-block values.
func gated(name string, value float64, perBlock []float64) metric {
	for _, d := range endToEnd {
		if d.name == name {
			sp := spread(perBlock)
			return metric{Value: value, Unit: d.unit, N: max(1, len(perBlock)), Spread: sp, Bound: d.bound, Noisy: sp > d.bound}
		}
	}
	panic("bench: " + name + " is not an end-to-end metric")
}

// endToEndMetrics returns the gated timings of the recorded phase. The ratio
// is protected over unprotected time within a round: both blocks of a round
// run the same requests back to back, so whatever slows the machine slows
// both. Which block runs first matters where they share a prefix cache (the
// second finds the first's entries), so the median is taken over the rounds
// of each order separately and the two are averaged. The caller adds
// live_heap_mb once the samples are dropped.
func (t *timed) endToEndMetrics() (ms map[string]metric, per map[string][]float64) {
	per = map[string][]float64{"setup_s": t.setup}
	for i, b := range t.ft2 {
		per["none_block_s"] = append(per["none_block_s"], t.none[i].wall)
		per["ft2_time_ratio"] = append(per["ft2_time_ratio"], b.wall/t.none[i].wall)
	}
	return map[string]metric{
		"setup_s":        gated("setup_s", median(t.setup), t.setup),
		"ft2_time_ratio": gated("ft2_time_ratio", orderBalanced(per["ft2_time_ratio"]), per["ft2_time_ratio"]),
	}, per
}

// liveHeapMB is the heap still reachable after a collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what finalizers released in the first
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
