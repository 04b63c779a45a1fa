// Command bench is the repository's benchmark: four closed-loop workloads
// (engine_decode, serve_mixed, serve_shared_prefix, cluster_relay), each
// measured as rounds of one unprotected and one FT2-protected block over the
// same seeded request list. README.md in this directory defines every metric.
//
//	bench/run.sh --workload serve_mixed --seed 1 --seconds 24 --trace 0
//	bench/run.sh --workload serve_mixed --seed 1 --trace 1   # per-layer pass
//	bench/run.sh --repeat 2                                  # repeatability check
//
// Standard output carries one indented JSON document with every metric, its
// sample count and spread, and the host fingerprint, and then, as the last
// line, the compact result {"correct","attempted","failed","metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"ft2/internal/tensor"
)

// defaultSeconds is the length of the timed phase; BENCHMARK.json's
// run_seconds is the same number.
const defaultSeconds = 24

// document is everything one run reports.
type document struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Host      map[string]any    `json:"host"`
	Inputs    map[string]any    `json:"inputs"`
	Ops       int               `json:"ops"`
	OpsFailed int               `json:"ops_failed"`
	FirstFail string            `json:"first_failure,omitempty"`
	Rounds    int               `json:"rounds"`
	Metrics   map[string]metric `json:"metrics"`
	// Observed holds, in an end-to-end run, the caller-visible timings that
	// are reported but not gated (a traced run carries them in Metrics).
	Observed map[string]metric `json:"observed,omitempty"`
	// Blocks holds the per-block values behind the medians, in run order.
	Blocks     map[string][]float64 `json:"blocks,omitempty"`
	SelfTimeMS map[string]float64   `json:"trace_self_ms,omitempty"`
	TraceFile  string               `json:"trace_file,omitempty"`
	Notes      []string             `json:"notes,omitempty"`
}

func main() {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("workload", "", "engine_decode | serve_mixed | serve_shared_prefix | cluster_relay")
	seed := fs.Int64("seed", 1, "seed of the generated request list")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "1: traced per-layer pass instead of the end-to-end run")
	repeat := fs.Int("repeat", 0, "run every workload this many times and compare the sets against the bounds")
	fs.Parse(traceArg(os.Args[1:]))

	if *repeat > 0 {
		os.Exit(runRepeat(*repeat, *seed, *seconds))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	// Pinned settings: at most two Ps, and the built-in kernel cost model. A
	// calibrated model changes kernel plans from run to run.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	tensor.SetCostModel(tensor.DefaultCostModel())

	doc, err := run(w, *seed, *seconds, *trace != 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", out)
	if doc.OpsFailed > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %s\n", w.name, doc.OpsFailed, doc.Ops, doc.FirstFail)
		os.Exit(1)
	}
	fmt.Println(resultLine(doc))
}

// traceArg lets "-trace" stand alone: the flag takes 0 or 1, and a bare one
// means 1.
func traceArg(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || (out[i+1] != "0" && out[i+1] != "1") {
			out[i] = "-trace=1"
		}
	}
	return out
}

// resultLine is the compact last line: whether every output was correct, how
// many operations ran and failed, and each metric's value and unit.
func resultLine(doc *document) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: doc.OpsFailed == 0, Attempted: doc.Ops, Failed: doc.OpsFailed, Metrics: map[string]value{}}
	for name, m := range doc.Metrics {
		res.Metrics[name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(res) // a struct of numbers, strings and bools cannot fail
	return string(line)
}

// run measures one workload: the end-to-end run, or the traced pass.
func run(w *workload, seed int64, seconds float64, traced bool) (*document, error) {
	r, err := newRunner(w, seed)
	if err != nil {
		return nil, err
	}
	doc := &document{
		Workload: w.name, Why: w.why, Traced: traced, Seed: seed, Seconds: seconds,
		Host: hostFingerprint(),
		Inputs: map[string]any{
			"requests":                len(r.reqs),
			"requests_per_block":      len(r.reqs) / w.pieces,
			"output_tokens_per_block": outputTokens(r.reqs) / w.pieces,
			"clients":                 w.clients,
			"request_list_fnv64a":     fmt.Sprintf("%016x", listHash(r.reqs)),
			"cold_starts":             coldStarts,
		},
	}
	if traced {
		err = r.tracedPass(doc)
	} else {
		err = r.endToEndRun(doc, seconds)
	}
	doc.Ops, doc.OpsFailed, doc.FirstFail = r.ops, r.failed, r.firstFail
	return doc, err
}

// endToEndRun is the untraced run: a cold start, the timed rounds on that
// system with the other cold starts spread between them, then the live heap
// with the system still up.
func (r *runner) endToEndRun(doc *document, seconds float64) error {
	sys, first, err := r.coldStart()
	if err != nil {
		return err
	}
	defer sys.close()
	t, err := r.measure(sys, first, seconds)
	if err != nil {
		return err
	}
	doc.Rounds = len(t.ft2)
	doc.Inputs["blocks_per_mode"] = len(t.ft2)
	doc.Metrics, doc.Blocks = t.endToEndMetrics()
	var per map[string][]float64
	doc.Observed, per = observe(t.ft2)
	for name, values := range per {
		doc.Blocks[name] = values
	}
	// The samples are reduced and dropped before the heap is read, so
	// live_heap_mb is the system's heap, not the benchmark's.
	*t = timed{}
	doc.Metrics["live_heap_mb"] = gated("live_heap_mb", liveHeapMB(), nil)
	return nil
}

// hostFingerprint records where and under which pinned settings the numbers
// were taken, so two documents can be told comparable or not.
func hostFingerprint() map[string]any {
	model, flags := cpuInfo()
	tier := "sse"
	for _, f := range []string{"avx", "fma", "f16c"} {
		if strings.Contains(" "+flags+" ", " "+f+" ") {
			tier = f
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":     model,
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goarch":        runtime.GOARCH,
		"cpuid_tier":    tier,
		"f16c_kernels":  tensor.F16StreamingAvailable(),
		"cost_model":    "default",
		"weight_format": "f32",
		"weight_seed":   weightSeed,
		"git_commit":    commit,
	}
}

// cpuInfo reads the CPU model name and feature flags from /proc/cpuinfo.
func cpuInfo() (model, flags string) {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown", ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if flags == "" {
				flags = strings.TrimSpace(v)
			}
		}
	}
	if model == "" {
		model = "unknown"
	}
	return model, flags
}
