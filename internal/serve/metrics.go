package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/core"
	"ft2/internal/model"
	"ft2/internal/prefixcache"
)

// metrics is the server's observability state: monotonic counters plus
// bounded latency reservoirs, rendered in Prometheus-style text by render.
type metrics struct {
	start       time.Time
	draining    atomic.Bool
	tokensTotal atomic.Int64
	batchSteps  atomic.Int64 // decode steps driven (each advances ≥1 session)

	// Prefill accounting for the prefix cache's effectiveness metric:
	// promptTokens counts every admitted session's full prompt length,
	// prefillTokens only the rows actually computed (cache hits skip the
	// cached prefix), prefillChunks the bounded chunks the scheduler ran.
	prefillChunks atomic.Int64
	prefillTokens atomic.Int64
	promptTokens  atomic.Int64
	coalesced     atomic.Int64 // sessions that parked behind an in-flight prefill

	// Fused-slice shape counters: how many mixed-phase ForwardBatch calls
	// ran, and how many of their stacked activation rows were prompt-chunk
	// rows vs decode rows — the observable measure of how well prefill work
	// amortizes over the decode batches it rides with. Serial-fallback steps
	// (lone sessions, below-crossover groups) do not count here.
	fusedForwards    atomic.Int64
	fusedPrefillRows atomic.Int64
	fusedDecodeRows  atomic.Int64

	statusMu sync.Mutex
	status   map[int]int64 // HTTP status → requests settled with it

	// Protection counters: the clamp's, added when a session settles, and
	// the exact-repair stages', drained per slice. abftTier/dmrTier record
	// whether the loaded policy has such a tier: its series are exported from
	// the first scrape on (as zeros) and never otherwise.
	corrMu            sync.Mutex
	corrByKind        [model.NumLayerKinds]KindCorrections
	firstTokenNaN     int64
	exact             core.ExactCounts
	abftTier, dmrTier bool

	// Chaos telemetry: replica rebuilds (panic or confirmed weight
	// corruption) and sessions a chaos fault targeted.
	rebuilds   atomic.Int64
	sdcSuspect atomic.Int64

	// Cluster / durability telemetry: migration checkpoints captured for
	// /v1/sessions/export, sessions adopted via /v1/sessions/import, and the
	// spill-dir parking pair (spilled at settle, restored on Resume).
	ckptExports  atomic.Int64
	sessImported atomic.Int64
	sessSpilled  atomic.Int64
	sessRestored atomic.Int64

	tokenLat  *latencyRing // per-step latency
	queueLat  *latencyRing // admission → first slice
	reqLat    *latencyRing // admission → settled
	batchSize *latencyRing // sessions advanced per step (achieved batch)
	fusedRows *latencyRing // activation rows per fused ForwardBatch call
}

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		status:    make(map[int]int64),
		tokenLat:  newLatencyRing(8192),
		queueLat:  newLatencyRing(2048),
		reqLat:    newLatencyRing(2048),
		batchSize: newLatencyRing(8192),
		fusedRows: newLatencyRing(8192),
	}
}

func (m *metrics) incStatus(code int) {
	m.statusMu.Lock()
	m.status[code]++
	m.statusMu.Unlock()
}

func (m *metrics) addExact(c core.ExactCounts) {
	m.corrMu.Lock()
	m.exact.ABFT.Add(c.ABFT)
	m.exact.DMRFixed += c.DMRFixed
	m.corrMu.Unlock()
}

// addCorrections accumulates a settled session's correction counters minus
// the base it was adopted with, so a migrated or resumed session — whose
// ForkState counters are cumulative across processes by design — only adds
// the corrections this process actually performed.
func (m *metrics) addCorrections(st, base core.ForkState) {
	m.corrMu.Lock()
	for k, c := range st.ByKind {
		m.corrByKind[k].OutOfBound += c.OutOfBound - base.ByKind[k].OutOfBound
		m.corrByKind[k].NaN += c.NaN - base.ByKind[k].NaN
	}
	m.firstTokenNaN += int64(st.FirstTokenNaN - base.FirstTokenNaN)
	m.corrMu.Unlock()
}

// latencyRing keeps the most recent cap observations (milliseconds) and
// answers quantile queries over them — a bounded-memory p50/p99 estimate
// that tracks current behaviour rather than lifetime history.
type latencyRing struct {
	mu     sync.Mutex
	buf    []float64
	next   int
	filled int
}

func newLatencyRing(capacity int) *latencyRing {
	return &latencyRing{buf: make([]float64, capacity)}
}

func (r *latencyRing) observe(ms float64) {
	r.mu.Lock()
	r.buf[r.next] = ms
	r.next = (r.next + 1) % len(r.buf)
	if r.filled < len(r.buf) {
		r.filled++
	}
	r.mu.Unlock()
}

// quantiles returns the requested quantiles (0..1) over the retained
// window, or nil when nothing was observed yet.
func (r *latencyRing) quantiles(qs ...float64) []float64 {
	r.mu.Lock()
	vals := append([]float64(nil), r.buf[:r.filled]...)
	r.mu.Unlock()
	if len(vals) == 0 {
		return nil
	}
	sort.Float64s(vals)
	out := make([]float64, len(qs))
	for i, q := range qs {
		idx := int(q * float64(len(vals)-1))
		out[i] = vals[idx]
	}
	return out
}

// render writes the text-format metrics. queueDepth/active/replicas come
// from the scheduler at scrape time; chaosC carries the chaos engine's
// counters (nil when chaos is off).
func (m *metrics) render(w io.Writer, modelName string, replicas, maxSessions, batchMax, queueDepth, active int, chaosC *chaos.Counters, prefixS *prefixcache.Stats) {
	uptime := time.Since(m.start).Seconds()
	fmt.Fprintf(w, "ft2serve_uptime_seconds %.3f\n", uptime)
	fmt.Fprintf(w, "ft2serve_model{name=%q} 1\n", modelName)
	fmt.Fprintf(w, "ft2serve_replicas %d\n", replicas)
	fmt.Fprintf(w, "ft2serve_max_sessions %d\n", maxSessions)
	fmt.Fprintf(w, "ft2serve_batch_max %d\n", batchMax)
	fmt.Fprintf(w, "ft2serve_queue_depth %d\n", queueDepth)
	fmt.Fprintf(w, "ft2serve_active_sessions %d\n", active)
	drain := 0
	if m.draining.Load() {
		drain = 1
	}
	fmt.Fprintf(w, "ft2serve_draining %d\n", drain)

	m.statusMu.Lock()
	codes := make([]int, 0, len(m.status))
	for c := range m.status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "ft2serve_requests_total{code=\"%d\"} %d\n", c, m.status[c])
	}
	m.statusMu.Unlock()

	tokens := m.tokensTotal.Load()
	fmt.Fprintf(w, "ft2serve_tokens_generated_total %d\n", tokens)
	if uptime > 0 {
		fmt.Fprintf(w, "ft2serve_tokens_per_sec %.2f\n", float64(tokens)/uptime)
	}
	fmt.Fprintf(w, "ft2serve_batched_steps_total %d\n", m.batchSteps.Load())
	if qs := m.batchSize.quantiles(0.5, 0.99); qs != nil {
		fmt.Fprintf(w, "ft2serve_batch_size{quantile=\"0.5\"} %.1f\n", qs[0])
		fmt.Fprintf(w, "ft2serve_batch_size{quantile=\"0.99\"} %.1f\n", qs[1])
	}
	fmt.Fprintf(w, "ft2serve_fused_forwards_total %d\n", m.fusedForwards.Load())
	fmt.Fprintf(w, "ft2serve_prefill_fused_rows_total %d\n", m.fusedPrefillRows.Load())
	fmt.Fprintf(w, "ft2serve_decode_fused_rows_total %d\n", m.fusedDecodeRows.Load())
	if qs := m.fusedRows.quantiles(0.5, 0.99); qs != nil {
		fmt.Fprintf(w, "ft2serve_fused_rows{quantile=\"0.5\"} %.1f\n", qs[0])
		fmt.Fprintf(w, "ft2serve_fused_rows{quantile=\"0.99\"} %.1f\n", qs[1])
	}

	for _, lr := range []struct {
		name string
		ring *latencyRing
	}{
		{"ft2serve_token_latency_ms", m.tokenLat},
		{"ft2serve_queue_latency_ms", m.queueLat},
		{"ft2serve_request_latency_ms", m.reqLat},
	} {
		name, ring := lr.name, lr.ring
		if qs := ring.quantiles(0.5, 0.99); qs != nil {
			fmt.Fprintf(w, "%s{quantile=\"0.5\"} %.4f\n", name, qs[0])
			fmt.Fprintf(w, "%s{quantile=\"0.99\"} %.4f\n", name, qs[1])
		}
	}

	m.corrMu.Lock()
	for k, c := range m.corrByKind {
		if c.OutOfBound > 0 {
			fmt.Fprintf(w, "ft2serve_ft2_corrections_total{kind=%q,type=\"out_of_bound\"} %d\n",
				model.LayerKind(k).String(), c.OutOfBound)
		}
		if c.NaN > 0 {
			fmt.Fprintf(w, "ft2serve_ft2_corrections_total{kind=%q,type=\"nan\"} %d\n",
				model.LayerKind(k).String(), c.NaN)
		}
	}
	fmt.Fprintf(w, "ft2serve_ft2_first_token_nan_total %d\n", m.firstTokenNaN)
	if m.abftTier {
		fmt.Fprintf(w, "ft2serve_abft_total{type=\"detected\"} %d\n", m.exact.ABFT.Detected)
		fmt.Fprintf(w, "ft2serve_abft_total{type=\"corrected\"} %d\n", m.exact.ABFT.Corrected)
		fmt.Fprintf(w, "ft2serve_abft_total{type=\"uncorrectable\"} %d\n", m.exact.ABFT.Uncorrectable)
	}
	if m.dmrTier {
		fmt.Fprintf(w, "ft2serve_dmr_corrections_total %d\n", m.exact.DMRFixed)
	}
	m.corrMu.Unlock()
	fmt.Fprintf(w, "ft2serve_prefill_chunks_total %d\n", m.prefillChunks.Load())
	fmt.Fprintf(w, "ft2serve_prefill_tokens_total %d\n", m.prefillTokens.Load())
	fmt.Fprintf(w, "ft2serve_prompt_tokens_total %d\n", m.promptTokens.Load())
	fmt.Fprintf(w, "ft2serve_prefill_coalesced_total %d\n", m.coalesced.Load())
	if prefixS != nil {
		fmt.Fprintf(w, "ft2serve_prefix_hits %d\n", prefixS.Hits)
		fmt.Fprintf(w, "ft2serve_prefix_misses %d\n", prefixS.Misses)
		fmt.Fprintf(w, "ft2serve_prefix_evictions %d\n", prefixS.Evictions)
		fmt.Fprintf(w, "ft2serve_prefix_insertions_total %d\n", prefixS.Insertions)
		fmt.Fprintf(w, "ft2serve_prefix_hit_rows_total %d\n", prefixS.HitRows)
		fmt.Fprintf(w, "ft2serve_prefix_entries %d\n", prefixS.Entries)
		fmt.Fprintf(w, "ft2serve_prefix_bytes %d\n", prefixS.Bytes)
		fmt.Fprintf(w, "ft2serve_prefix_budget_bytes %d\n", prefixS.Budget)
	}
	fmt.Fprintf(w, "ft2serve_checkpoint_exports_total %d\n", m.ckptExports.Load())
	fmt.Fprintf(w, "ft2serve_sessions_imported_total %d\n", m.sessImported.Load())
	fmt.Fprintf(w, "ft2serve_sessions_spilled_total %d\n", m.sessSpilled.Load())
	fmt.Fprintf(w, "ft2serve_sessions_restored_total %d\n", m.sessRestored.Load())
	fmt.Fprintf(w, "ft2serve_replica_rebuilds_total %d\n", m.rebuilds.Load())
	if chaosC != nil {
		fmt.Fprintf(w, "ft2serve_chaos_injected_total{target=\"activation\"} %d\n", chaosC.InjectedActivation)
		fmt.Fprintf(w, "ft2serve_chaos_injected_total{target=\"weight\"} %d\n", chaosC.InjectedWeight)
		fmt.Fprintf(w, "ft2serve_chaos_injected_total{target=\"kv\"} %d\n", chaosC.InjectedKV)
		fmt.Fprintf(w, "ft2serve_chaos_scrub_detected_total %d\n", chaosC.ScrubDetected)
		fmt.Fprintf(w, "ft2serve_chaos_sdc_suspect_sessions_total %d\n", m.sdcSuspect.Load())
	}
}
