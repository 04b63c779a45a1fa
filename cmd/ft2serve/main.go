// Command ft2serve serves FT2-protected generation over HTTP with
// continuous batching:
//
//	ft2serve -model llama2-7b-sim -addr 127.0.0.1:8080
//	curl -s localhost:8080/v1/generate \
//	    -d '{"text":"what city hosts the museum","max_tokens":32,"protected":true}'
//
// Endpoints: POST /v1/generate (single JSON or NDJSON streaming),
// GET /v1/models, GET /healthz, GET /metrics. SIGINT/SIGTERM (or -timeout)
// drain gracefully: admission stops — new requests get 503 — in-flight
// generations finish within -grace, then the process exits 0. That served
// outputs equal the GenerateInto oracle bit for bit is asserted by the tests
// of internal/serve; the flags and signals of this file by
// TestRealProcessCluster in cmd/ft2router.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/cliutil"
	"ft2/internal/fault"
	"ft2/internal/protect"
	"ft2/internal/serve"
	"ft2/internal/tensor"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	modelName := flag.String("model", "llama2-7b-sim", "zoo model name to serve")
	seed := flag.Int64("seed", 42, "weight seed shared by every replica")
	dtype := cliutil.RegisterDType(flag.CommandLine)
	replicas := flag.Int("replicas", 0, "model replicas (0 = GOMAXPROCS)")
	maxSessions := flag.Int("max-sessions", 0, "concurrent sessions time-sliced over the replicas (0 = 4×replicas, min 16)")
	queueDepth := flag.Int("queue", 0, "admission queue depth; a full queue answers 429 (0 = 64)")
	sliceSteps := flag.Int("slice", 0, "decode steps per scheduling slice (0 = 8)")
	batchMax := flag.Int("batch-max", 0, "max sessions fused into one batched decode step (0 = 4×replicas; 1 = serial)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline (0 = 30s)")
	grace := flag.Duration("grace", 30*time.Second, "drain grace period on shutdown before in-flight requests are failed")
	throttle := flag.Duration("throttle", 0, "artificial pause before every decode step (demos/smoke tests)")
	weights := flag.String("weights", "f32", "weight storage: f32, or f16 (packed binary16, halves streamed bytes on F16C hosts)")
	prefixMB := flag.Int("prefix-cache-mb", 0, "radix prefix-cache byte budget in MiB (0 = off); cached prompt-prefix KV is forked into sessions sharing a prefix")
	prefillChunk := flag.Int("prefill-chunk", 0, "max prompt tokens prefilled per scheduling slice (0 = 64 when the prefix cache is on, else whole prompt in one slice)")
	policyPath := flag.String("protect-policy", "", "adaptive per-layer protection policy JSON (cmd/ft2policy); empty = uniform FT2")
	chaosOn := flag.Bool("chaos", false, "enable the online chaos engine (faults injected into opted-in sessions at slice boundaries)")
	chaosSeed := flag.Int64("chaos-seed", 1, "chaos fault-stream seed")
	chaosRate := flag.Float64("chaos-rate", 0.25, "expected chaos fault arrivals per scheduling slice")
	chaosBurst := flag.Int("chaos-burst", 1, "max simultaneous faults per arrival (multi-fault bursts)")
	chaosWeight := flag.Float64("chaos-weight", 0.2, "fraction of chaos faults corrupting replica weights persistently")
	chaosKV := flag.Float64("chaos-kv", 0.2, "fraction of chaos faults flipping resident KV-cache bits")
	chaosJournal := flag.String("chaos-journal", "", "append every chaos injection/recovery event as JSONL to this path")
	exportStride := flag.Int("export-stride", 0, "capture a live-migration checkpoint every N emitted tokens for sessions with a session_id, served by GET /v1/sessions/export (0 = off)")
	spillDir := flag.String("spill-dir", "", "durable session parking: finished sessions with a session_id are written here and can be resumed with {\"resume\":true} after a restart (empty = off)")
	base := cliutil.RegisterBase(flag.CommandLine)
	flag.Parse()

	if *weights != "f32" && *weights != "f16" {
		fmt.Fprintf(os.Stderr, "ft2serve: unknown -weights %q (want f32 or f16)\n", *weights)
		os.Exit(2)
	}
	tensor.AutoCalibrate()
	cfg := serve.Config{
		Model:           *modelName,
		Seed:            *seed,
		DType:           *dtype,
		Replicas:        *replicas,
		MaxSessions:     *maxSessions,
		QueueDepth:      *queueDepth,
		SliceSteps:      *sliceSteps,
		BatchMax:        *batchMax,
		DefaultDeadline: *deadline,
		StepDelay:       *throttle,
		WeightsF16:      *weights == "f16",
		PrefixCacheMB:   *prefixMB,
		PrefillChunk:    *prefillChunk,
		ExportStride:    *exportStride,
		SpillDir:        *spillDir,
	}
	if *policyPath != "" {
		f, err := os.Open(*policyPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ft2serve:", err)
			os.Exit(2)
		}
		pol, err := protect.LoadPolicy(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "ft2serve:", err)
			os.Exit(2)
		}
		cfg.ProtectPolicy = pol
		// Reject a policy derived for another model family here, before the
		// listener binds.
		if _, err := cfg.WithDefaults(); err != nil {
			fmt.Fprintln(os.Stderr, "ft2serve:", err)
			os.Exit(2)
		}
		fmt.Printf("ft2serve: protection policy: %s\n", pol)
	}
	if *chaosOn {
		cfg.Chaos = &chaos.Config{
			Seed:    *chaosSeed,
			Rate:    *chaosRate,
			Burst:   *chaosBurst,
			Mix:     fault.TargetMix{Weight: *chaosWeight, KV: *chaosKV},
			DType:   *dtype,
			Journal: *chaosJournal,
		}
	}

	ctx, stop := base.Context()
	defer stop()

	// Bind before the expensive replica build so a router supervising this
	// worker sees the port immediately: the StartupGate answers 503 on
	// /healthz (keeping us out of rotation) and 200 on /livez until the
	// server is ready, then flips to passthrough atomically.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ft2serve:", err)
		os.Exit(1)
	}
	gate := serve.NewStartupGate()
	hs := &http.Server{Handler: gate}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()
	fmt.Printf("ft2serve: bound http://%s — building %s replicas (not ready yet)\n", ln.Addr(), *modelName)

	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ft2serve:", err)
		os.Exit(1)
	}
	gate.Ready(srv.Handler())
	ecfg := srv.Config()
	fmt.Printf("ft2serve: serving %s (%d replicas, %d sessions, batch %d, queue %d) — listening on http://%s\n",
		ecfg.Model, ecfg.Replicas, ecfg.MaxSessions, ecfg.BatchMax, ecfg.QueueDepth, ln.Addr())

	select {
	case err := <-httpErr:
		fmt.Fprintln(os.Stderr, "ft2serve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: stop admitting (new requests answer 503), let
	// in-flight generations finish within the grace period, then close the
	// HTTP side once every handler has responded.
	fmt.Fprintln(os.Stderr, "ft2serve: draining...")
	srv.BeginDrain()
	gctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(gctx); err != nil {
		fmt.Fprintf(os.Stderr, "ft2serve: drain grace expired (%v); in-flight requests failed fast\n", err)
	}
	if err := hs.Shutdown(gctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "ft2serve:", err)
	}
	fmt.Fprintln(os.Stderr, "ft2serve: drained, exiting")
}
