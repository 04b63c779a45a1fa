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
// generations finish within -grace, then the process exits 0.
//
//	ft2serve -selftest
//
// runs the serving stack against an in-process load generator at 1, 4 and
// 16 concurrent clients — once batched (sessions fused into ForwardBatch
// groups) and once with groups of one (-batch-max 1)
// — and exits non-zero unless every served output — protected and bare —
// is bit-identical to a direct GenerateInto oracle run, correction counters
// included.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"ft2/internal/chaos"
	"ft2/internal/cliutil"
	"ft2/internal/data"
	"ft2/internal/fault"
	"ft2/internal/numerics"
	"ft2/internal/protect"
	"ft2/internal/serve"
	"ft2/internal/tensor"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
	modelName := flag.String("model", "llama2-7b-sim", "zoo model name to serve")
	seed := flag.Int64("seed", 42, "weight seed shared by every replica")
	dtypeName := flag.String("dtype", "fp16", "activation dtype: fp16, fp32")
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
	sharedFrac := flag.Float64("shared-prefix", 0.9, "shared-prefix fraction of each prompt in the selftest shared-prefix storm")
	sharedLen := flag.Int("shared-prompt-len", 48, "prompt length (tokens) in the selftest shared-prefix storm")
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
	selftest := flag.Bool("selftest", false, "run the in-process load-generator self-test and exit (chaos regime when -chaos is set)")
	base := cliutil.RegisterBase(flag.CommandLine)
	flag.Parse()

	dtype := numerics.FP16
	if *dtypeName == "fp32" {
		dtype = numerics.FP32
	}
	if *weights != "f32" && *weights != "f16" {
		fmt.Fprintf(os.Stderr, "ft2serve: unknown -weights %q (want f32 or f16)\n", *weights)
		os.Exit(2)
	}
	tensor.AutoCalibrate()
	cfg := serve.Config{
		Model:           *modelName,
		Seed:            *seed,
		DType:           dtype,
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
		// listener binds and the selftests run.
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
			DType:   dtype,
			Journal: *chaosJournal,
		}
	}

	ctx, stop := base.Context()
	defer stop()

	if *selftest {
		if cfg.Chaos != nil {
			os.Exit(runChaosSelfTest(ctx, cfg))
		}
		os.Exit(runSelfTest(ctx, cfg, *sharedFrac, *sharedLen))
	}

	// Bind before the expensive replica build so a router supervising this
	// worker sees the port immediately: the StartupGate answers 503 on
	// /healthz (keeping us out of rotation) and 200 on /livez until the
	// server is ready, then flips to passthrough atomically. The pre-ready
	// log line deliberately avoids the phrase the smoke scripts key on to
	// detect readiness.
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

// runSelfTest serves an in-process load at increasing concurrency and
// checks every response against the direct-generation oracle bit for bit.
// When the prefix cache is enabled it additionally runs the shared-prefix
// client storm: a cold and then a warm pass over one prompt set, the warm
// pass required to hit the cache and still match the oracle exactly.
func runSelfTest(ctx context.Context, cfg serve.Config, sharedFrac float64, sharedLen int) int {
	const (
		prompts   = 8
		maxTokens = 24
	)
	fail := func(format string, args ...interface{}) int {
		fmt.Fprintf(os.Stderr, "ft2serve: selftest: "+format+"\n", args...)
		return 1
	}

	ds, err := data.ByName("squad-sim", prompts)
	if err != nil {
		return fail("%v", err)
	}
	promptFor := func(i int) []int { return ds.Inputs[i%prompts].Prompt }

	// One oracle per (prompt, protection): a fresh model driven end to end
	// by GenerateInto — the ground truth the scheduler must reproduce no
	// matter how it slices and migrates sessions.
	srv, err := serve.New(cfg)
	if err != nil {
		return fail("%v", err)
	}
	ecfg := srv.Config()
	type oracle struct {
		tokens []int
		corr   serve.Corrections
	}
	oracles := make(map[bool][]oracle, 2)
	for _, protected := range []bool{false, true} {
		for i := 0; i < prompts; i++ {
			toks, corr, err := serve.Oracle(ecfg, promptFor(i), maxTokens, protected)
			if err != nil {
				return fail("oracle: %v", err)
			}
			oracles[protected] = append(oracles[protected], oracle{toks, corr})
		}
	}
	srv.Shutdown(ctx)

	// Both group widths must reproduce the oracle: the configured BatchMax
	// and groups of one (BatchMax 1).
	for _, batchMax := range []int{cfg.BatchMax, 1} {
		bcfg := cfg
		bcfg.BatchMax = batchMax
		mode := "batched"
		if batchMax == 1 {
			mode = "serial"
		}
		for _, clients := range []int{1, 4, 16} {
			for _, protected := range []bool{true, false} {
				srv, err := serve.New(bcfg)
				if err != nil {
					return fail("%v", err)
				}
				st := srv.RunLoad(ctx, serve.LoadSpec{
					Clients:   clients,
					Requests:  2 * clients,
					MaxTokens: maxTokens,
					Protected: protected,
					PromptFor: promptFor,
				})
				srv.Shutdown(context.Background())
				if st.Failed > 0 {
					for i, e := range st.Errs {
						if e != nil {
							return fail("%s clients=%d protected=%v request %d failed: %v", mode, clients, protected, i, e)
						}
					}
				}
				for i, res := range st.Results {
					want := oracles[protected][i%prompts]
					if !equalInts(res.Tokens, want.tokens) {
						return fail("%s clients=%d protected=%v request %d: served tokens %v != oracle %v",
							mode, clients, protected, i, res.Tokens, want.tokens)
					}
					if protected && res.Corrections.OutOfBound != want.corr.OutOfBound {
						return fail("%s clients=%d request %d: served %d out-of-bound corrections != oracle %d",
							mode, clients, i, res.Corrections.OutOfBound, want.corr.OutOfBound)
					}
				}
				fmt.Printf("ft2serve: selftest %-7s clients=%-2d protected=%-5v %3d requests ok, %.1f tok/s\n",
					mode, clients, protected, st.Requests, st.TokensPerSec)
			}
		}
	}
	if cfg.PrefixCacheMB > 0 {
		if rc := runSharedPrefixStorm(ctx, cfg, ecfg, sharedFrac, sharedLen, fail); rc != 0 {
			return rc
		}
	}
	fmt.Println("ft2serve: selftest passed — served outputs bit-identical to the GenerateInto oracle")
	return 0
}

// runSharedPrefixStorm is the prefix-cache selftest regime: for each
// protection mode, one server serves the same 16-prompt shared-prefix set
// twice with 8 concurrent clients. The cold pass populates the cache; the
// warm pass must record hits, compute strictly fewer prefill tokens, and
// every response of both passes must stay bit-identical to the per-prompt
// GenerateInto oracle — the cache-hit ≡ cold ≡ oracle contract.
func runSharedPrefixStorm(ctx context.Context, cfg, ecfg serve.Config, sharedFrac float64, sharedLen int, fail func(string, ...interface{}) int) int {
	const (
		clients   = 8
		requests  = 16
		maxTokens = 16
	)
	for _, protected := range []bool{false, true} {
		spec := serve.SharedPrefixLoad(clients, requests, maxTokens, sharedLen, sharedFrac, cfg.Seed, protected)
		srv, err := serve.New(cfg)
		if err != nil {
			return fail("%v", err)
		}
		for _, pass := range []string{"cold", "warm"} {
			st := srv.RunLoad(ctx, spec)
			if st.Failed > 0 {
				for i, e := range st.Errs {
					if e != nil {
						srv.Shutdown(context.Background())
						return fail("storm %s protected=%v request %d failed: %v", pass, protected, i, e)
					}
				}
			}
			for i, res := range st.Results {
				want, corr, err := serve.Oracle(ecfg, spec.PromptFor(i), maxTokens, protected)
				if err != nil {
					srv.Shutdown(context.Background())
					return fail("storm oracle: %v", err)
				}
				if !equalInts(res.Tokens, want) {
					srv.Shutdown(context.Background())
					return fail("storm %s protected=%v request %d: served %v != oracle %v",
						pass, protected, i, res.Tokens, want)
				}
				if protected && res.Corrections.OutOfBound != corr.OutOfBound {
					srv.Shutdown(context.Background())
					return fail("storm %s request %d: served %d out-of-bound corrections != oracle %d",
						pass, i, res.Corrections.OutOfBound, corr.OutOfBound)
				}
			}
			ps := srv.PrefixStats()
			prefill, prompt, _ := srv.PrefillCounters()
			fmt.Printf("ft2serve: selftest storm    %s protected=%-5v %3d requests ok, %.1f tok/s (hits %d, prefill %d/%d prompt tokens)\n",
				pass, protected, st.Requests, st.TokensPerSec, ps.Hits, prefill, prompt)
			if pass == "warm" {
				if ps.Hits == 0 {
					srv.Shutdown(context.Background())
					return fail("storm protected=%v warm pass never hit the prefix cache: %+v", protected, ps)
				}
				if prefill >= prompt {
					srv.Shutdown(context.Background())
					return fail("storm protected=%v computed %d prefill tokens for %d prompt tokens — cache saved nothing", protected, prefill, prompt)
				}
			}
		}
		if err := srv.Shutdown(context.Background()); err != nil {
			return fail("storm shutdown: %v", err)
		}
	}
	fmt.Println("ft2serve: selftest storm passed — warm shared-prefix serving hit the cache and matched the oracle")
	return 0
}

// runChaosSelfTest drives the server with mixed victim/control traffic while
// the chaos engine injects faults at slice boundaries, then asserts the
// blast-radius contract: every control session is bit-identical to the
// oracle, every injection is journaled, and confirmed persistent weight
// corruption was scrubbed and recovered without failing any request.
func runChaosSelfTest(ctx context.Context, cfg serve.Config) int {
	const (
		prompts   = 8
		requests  = 24
		maxTokens = 16
	)
	fail := func(format string, args ...interface{}) int {
		fmt.Fprintf(os.Stderr, "ft2serve: chaos-selftest: "+format+"\n", args...)
		return 1
	}

	ds, err := data.ByName("squad-sim", prompts)
	if err != nil {
		return fail("%v", err)
	}
	promptFor := func(i int) []int { return ds.Inputs[i%prompts].Prompt }
	victim := func(i int) bool { return i%2 == 1 }

	srv, err := serve.New(cfg)
	if err != nil {
		return fail("%v", err)
	}
	ecfg := srv.Config()
	cc := ecfg.Chaos
	fmt.Printf("ft2serve: chaos-selftest %s rate=%.2g/slice burst=%d mix=%.0f%%w/%.0f%%kv seed=%d\n",
		ecfg.Model, cc.Rate, cc.Burst, cc.Mix.Weight*100, cc.Mix.KV*100, cc.Seed)

	st := srv.RunLoad(ctx, serve.LoadSpec{
		Clients: 8, Requests: requests, MaxTokens: maxTokens,
		Protected: true, PromptFor: promptFor, ChaosFor: victim,
	})
	if st.Failed > 0 {
		for i, e := range st.Errs {
			if e != nil {
				return fail("request %d failed under chaos: %v", i, e)
			}
		}
	}

	victims := 0
	for i, res := range st.Results {
		if victim(i) {
			victims++ // victims may legitimately diverge — that is the experiment
			continue
		}
		want, _, err := serve.Oracle(ecfg, promptFor(i), maxTokens, true)
		if err != nil {
			return fail("oracle: %v", err)
		}
		if !equalInts(res.Tokens, want) {
			return fail("control request %d diverged under chaos: served %v != oracle %v", i, res.Tokens, want)
		}
	}

	c := srv.Chaos().Counters()
	if c.Injected() == 0 {
		return fail("chaos engine never injected (rate %.3g too low for this load?)", cc.Rate)
	}
	if c.ScrubDetected != c.Rebuilds {
		return fail("scrub detected %d weight corruptions but %d rebuilds ran", c.ScrubDetected, c.Rebuilds)
	}
	events := srv.Chaos().Events()
	if err := srv.Shutdown(context.Background()); err != nil {
		return fail("shutdown: %v", err)
	}
	if cc.Journal != "" {
		journaled, err := countJournalLines(cc.Journal)
		if err != nil {
			return fail("%v", err)
		}
		if int64(journaled["inject"]) != c.Injected() {
			return fail("journal records %d injections, counters say %d", journaled["inject"], c.Injected())
		}
	}

	fmt.Printf("ft2serve: chaos-selftest %d requests ok (%d victims), %.1f tok/s\n",
		st.Requests, victims, st.TokensPerSec)
	fmt.Printf("ft2serve: chaos-selftest injected %d (%d activation, %d weight, %d kv) over %d journaled events\n",
		c.Injected(), c.InjectedActivation, c.InjectedWeight, c.InjectedKV, len(events))
	fmt.Printf("ft2serve: chaos-selftest recovered %d confirmed weight corruptions via replica rebuild\n", c.Rebuilds)
	fmt.Println("ft2serve: chaos-selftest passed — control sessions bit-identical to the oracle under chaos")
	return 0
}

// countJournalLines tallies chaos journal lines by event kind.
func countJournalLines(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kinds := make(map[string]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev chaos.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("bad journal line %q: %v", sc.Text(), err)
		}
		kinds[ev.Kind]++
	}
	return kinds, sc.Err()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
