// Package router is ft2's cluster front-end: it spreads generation sessions
// across a set of ft2serve worker processes by consistent hashing, health
// checks the workers, and — the point of the exercise — survives a worker
// dying mid-generation by migrating the session to a survivor and resuming
// it from the worker's last exported checkpoint, bit-identically to a
// single-process run. Clients see one endpoint and uninterrupted streams;
// workers remain plain ft2serve processes.
package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ft2/internal/serve"
)

// Config describes the cluster front-end.
type Config struct {
	// Workers are the base URLs of the ft2serve processes (e.g.
	// "http://127.0.0.1:8101"). The set is fixed for the router's life;
	// individual workers may come and go (health checks handle that).
	Workers []string

	// ProbeInterval is the /healthz polling period per worker (default
	// 250ms). While a worker is down the prober backs off exponentially to
	// 8× the interval, and stream failures mark workers dead immediately —
	// the prober is how they come back, not how deaths are noticed.
	ProbeInterval time.Duration

	// ProbeTimeout bounds one health probe (default ProbeInterval).
	ProbeTimeout time.Duration

	// FetchStride is how many relayed tokens between checkpoint fetches
	// (GET /v1/sessions/export) for a session — a due fetch waits until
	// the relay has caught up with the stream — 0 disabling fetching (failed
	// sessions then restart from the prompt on a survivor — still
	// bit-identical, just more replay). It should be ≥ the workers'
	// -export-stride; fetching more often than workers capture only
	// re-downloads the same blob.
	FetchStride int

	// Vnodes is the number of ring points per worker (default 64).
	Vnodes int

	// Client is the HTTP client used for proxying and probing (default: a
	// dedicated client with sane pooling).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.Vnodes <= 0 {
		c.Vnodes = 64
	}
	if c.Client == nil {
		c.Client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 32,
		}}
	}
	return c
}

// worker is the router's view of one ft2serve process.
type worker struct {
	url     string
	healthy atomic.Bool
	fails   atomic.Int64 // consecutive probe failures (drives backoff)
}

// Router is the front-end. Build with New, mount Handler, Close to stop
// the probers.
type Router struct {
	cfg     Config
	ring    *hashRing
	workers []*worker

	sessSeq atomic.Int64

	sessions   atomic.Int64 // sessions accepted
	migrations atomic.Int64 // mid-stream failovers (checkpoint or fresh)
	ckptMigr   atomic.Int64 // failovers resumed from a checkpoint
	failures   atomic.Int64 // sessions that exhausted every worker
	fetches    atomic.Int64 // checkpoint blobs fetched

	latMu    sync.Mutex
	migrLat  []float64        // migration latencies, ms (bounded), for Stats
	migrHist *serve.Histogram // every migration latency, ms, for /metrics

	start  time.Time
	stop   chan struct{}
	closed sync.Once
	wg     sync.WaitGroup
}

// New builds the router and starts one health prober per worker. Workers
// start unknown-dead and flip healthy on their first successful probe; call
// WaitReady to block until the cluster can take traffic.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("router: no workers configured")
	}
	rt := &Router{
		cfg:      cfg,
		ring:     newHashRing(cfg.Workers, cfg.Vnodes),
		start:    time.Now(),
		stop:     make(chan struct{}),
		migrHist: serve.NewHistogram(serve.MSBuckets),
	}
	for _, u := range cfg.Workers {
		rt.workers = append(rt.workers, &worker{url: strings.TrimRight(u, "/")})
	}
	for _, w := range rt.workers {
		rt.wg.Add(1)
		go rt.probe(w)
	}
	return rt, nil
}

// Close stops the probers. In-flight proxied requests are not interrupted.
func (rt *Router) Close() {
	rt.closed.Do(func() { close(rt.stop) })
	rt.wg.Wait()
}

// WaitReady blocks until at least one worker is healthy or ctx expires.
func (rt *Router) WaitReady(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if rt.healthyCount() > 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

func (rt *Router) healthyCount() int {
	n := 0
	for _, w := range rt.workers {
		if w.healthy.Load() {
			n++
		}
	}
	return n
}

// probe is the per-worker health loop: GET /healthz at ProbeInterval,
// healthy on 200 (which ft2serve withholds while initializing or draining,
// so this doubles as a drain detector), exponential backoff to 8× the
// interval while the worker stays down.
func (rt *Router) probe(w *worker) {
	defer rt.wg.Done()
	for {
		delay := rt.cfg.ProbeInterval
		if f := w.fails.Load(); f > 0 {
			for i := int64(0); i < f && delay < 8*rt.cfg.ProbeInterval; i++ {
				delay *= 2
			}
		}
		if rt.probeOnce(w) {
			w.fails.Store(0)
			w.healthy.Store(true)
		} else {
			w.fails.Add(1)
			w.healthy.Store(false)
		}
		select {
		case <-rt.stop:
			return
		case <-time.After(delay):
		}
	}
}

func (rt *Router) probeOnce(w *worker) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// markDead takes a worker out of rotation immediately (stream broke); the
// prober brings it back when /healthz recovers.
func (rt *Router) markDead(w *worker) { w.healthy.Store(false) }

// pickWorker returns the first healthy worker in the session's ring order,
// or nil when the whole cluster is down.
func (rt *Router) pickWorker(sessionID string) *worker {
	for _, i := range rt.ring.sequence(sessionID) {
		if rt.workers[i].healthy.Load() {
			return rt.workers[i]
		}
	}
	return nil
}

// Stats is a point-in-time snapshot of the router's counters, consumed by
// the tests and the cluster benchmark.
type Stats struct {
	Workers             int
	Healthy             int
	Sessions            int64
	Migrations          int64
	CheckpointResumes   int64
	Failures            int64
	CheckpointFetches   int64
	MigrationLatenciesM []float64 // milliseconds, most recent first capped
}

// Stats returns a snapshot of the router's counters.
func (rt *Router) Stats() Stats {
	rt.latMu.Lock()
	lat := append([]float64(nil), rt.migrLat...)
	rt.latMu.Unlock()
	return Stats{
		Workers:             len(rt.workers),
		Healthy:             rt.healthyCount(),
		Sessions:            rt.sessions.Load(),
		Migrations:          rt.migrations.Load(),
		CheckpointResumes:   rt.ckptMigr.Load(),
		Failures:            rt.failures.Load(),
		CheckpointFetches:   rt.fetches.Load(),
		MigrationLatenciesM: lat,
	}
}

func (rt *Router) observeMigration(ms float64) {
	rt.migrHist.Observe(ms)
	rt.latMu.Lock()
	if len(rt.migrLat) < 4096 {
		rt.migrLat = append(rt.migrLat, ms)
	}
	rt.latMu.Unlock()
}

// Handler returns the router's HTTP surface:
//
//	POST /v1/generate — proxy a generation with transparent failover
//	GET  /v1/models   — passthrough to any healthy worker
//	GET  /healthz     — 200 while ≥1 worker is healthy
//	GET  /livez       — 200 while the router process runs
//	GET  /metrics     — router counters + per-worker health
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", rt.handleGenerate)
	mux.HandleFunc("/v1/models", rt.handlePassthrough)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/livez", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/metrics", rt.handleMetrics)
	return mux
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if rt.healthyCount() == 0 {
		http.Error(w, "no healthy workers", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintf(w, "ok %d/%d workers\n", rt.healthyCount(), len(rt.workers))
}

// handlePassthrough relays a read-only endpoint to any healthy worker.
func (rt *Router) handlePassthrough(w http.ResponseWriter, r *http.Request) {
	wk := rt.pickWorker(r.URL.Path)
	if wk == nil {
		http.Error(w, "no healthy workers", http.StatusServiceUnavailable)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, wk.url+r.URL.Path, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := rt.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "ft2router_uptime_seconds %.1f\n", time.Since(rt.start).Seconds())
	fmt.Fprintf(w, "ft2router_workers %d\n", st.Workers)
	fmt.Fprintf(w, "ft2router_workers_healthy %d\n", st.Healthy)
	fmt.Fprintf(w, "ft2router_sessions_total %d\n", st.Sessions)
	fmt.Fprintf(w, "ft2router_migrations_total %d\n", st.Migrations)
	fmt.Fprintf(w, "ft2router_checkpoint_resumes_total %d\n", st.CheckpointResumes)
	fmt.Fprintf(w, "ft2router_checkpoint_fetches_total %d\n", st.CheckpointFetches)
	fmt.Fprintf(w, "ft2router_sessions_failed_total %d\n", st.Failures)
	rt.migrHist.Render(w, "ft2router_migration_latency_ms")
	for _, wk := range rt.workers {
		h := 0
		if wk.healthy.Load() {
			h = 1
		}
		fmt.Fprintf(w, "ft2router_worker_healthy{worker=%q} %d\n", wk.url, h)
	}
}
