package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestUsablePercentile(t *testing.T) {
	cases := []struct {
		n       int
		want, p float64
	}{
		{1000, 0.95, 0.95}, // 50 samples beyond: p95 stands
		{200, 0.95, 0.95},  // exactly 10 beyond
		{100, 0.90, 0.95},  // p95 would leave 5 beyond: lowered to p90
		{40, 0.75, 0.90},
		{15, 0.50, 0.90}, // never below the median
		{0, 0.50, 0.95},
	}
	for _, c := range cases {
		if got := usablePercentile(c.n, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("usablePercentile(%d, %.2f) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if v, used := percentile(asc, 0.95); v != 90 || used != 0.90 {
		t.Errorf("percentile of 1..100 at p95 = %v (p%v), want 90 at p0.9 with 10 samples beyond", v, used)
	}
	if v, _ := percentile(asc, 0.50); v != 50 {
		t.Errorf("median rank of 1..100 = %v, want 50", v)
	}
}

func TestMedianAndPairedRatio(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	// Drift doubles both blocks of the middle round; the in-round ratio
	// does not move.
	ft2 := []float64{1.1, 2.2, 1.1}
	none := []float64{1.0, 2.0, 1.0}
	if got := pairedRatio(ft2, none); math.Abs(got-1.1) > 1e-12 {
		t.Errorf("pairedRatio = %v, want 1.1", got)
	}
}

func TestOrderBalanced(t *testing.T) {
	// Rounds alternate orders; one order reads 1.2, the other 1.8. With an
	// odd count the plain median would sit on one order; the balanced value
	// is their midpoint however many rounds ran.
	for _, n := range []int{4, 5, 9} {
		var r []float64
		for i := 0; i < n; i++ {
			r = append(r, 1.2+0.6*float64(i%2))
		}
		if got := orderBalanced(r); math.Abs(got-1.5) > 1e-12 {
			t.Errorf("orderBalanced over %d rounds = %v, want 1.5", n, got)
		}
	}
	if got := orderBalanced([]float64{1.1}); got != 1.1 {
		t.Errorf("orderBalanced of one round = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v, want 1, 4", q1, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread(1..10) = %v, want 5.5/5.5", got)
	}
}

func TestSteadyIgnoresSlowOutliers(t *testing.T) {
	clean := []float64{1.00, 1.01, 0.99, 1.02, 1.00, 1.01, 0.98, 1.00}
	dirty := append(append([]float64(nil), clean...), 1.5, 1.6, 1.4) // contended blocks
	if a, b := steady(clean), steady(dirty); math.Abs(a-b) > 0.011 {
		t.Errorf("steady moved from %v to %v when slow outliers were added", a, b)
	}
}

func TestOrderAlternates(t *testing.T) {
	firsts := 0
	for round := 0; round < 10; round++ {
		if ft2First(round) == ft2First(round+1) {
			t.Fatalf("rounds %d and %d start with the same mode", round, round+1)
		}
		if ft2First(round) {
			firsts++
		}
	}
	if firsts != 5 {
		t.Errorf("protected block first in %d of 10 rounds, want 5", firsts)
	}
}

func TestWorkloadGeneration(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.requests(7), w.requests(7), w.requests(8)
		if listHash(a) != listHash(b) {
			t.Errorf("%s: same seed gave different request lists", w.name)
		}
		if listHash(a) == listHash(c) {
			t.Errorf("%s: different seeds gave the same request list", w.name)
		}
		if len(a) != len(c) {
			t.Fatalf("%s: list length depends on the seed", w.name)
		}
		// Every block has the same shape as the first.
		n := len(a) / w.pieces
		if n*w.pieces != len(a) {
			t.Fatalf("%s: %d requests do not cut into %d blocks", w.name, len(a), w.pieces)
		}
		for i, rq := range a {
			if b := a[i%n]; len(rq.Prompt) != len(b.Prompt) || rq.Out != b.Out || rq.Model != b.Model {
				t.Fatalf("%s: request %d differs in shape from request %d of the first block", w.name, i, i%n)
			}
		}
		for i, rq := range a {
			if len(rq.Prompt)+rq.Out > maxSeq {
				t.Errorf("%s: request %d needs %d positions, MaxSeq is %d", w.name, i, len(rq.Prompt)+rq.Out, maxSeq)
			}
			if rq.Out < 2 {
				t.Errorf("%s: request %d generates %d tokens; TPOT needs two", w.name, i, rq.Out)
			}
			// Shapes are constants: only token ids may depend on the seed.
			if len(rq.Prompt) != len(c[i].Prompt) || rq.Out != c[i].Out || rq.Model != c[i].Model {
				t.Errorf("%s: request %d changes shape with the seed", w.name, i)
			}
			if rq.Prompt[0] != tokBOS {
				t.Errorf("%s: request %d does not start with BOS", w.name, i)
			}
			for _, tok := range rq.Prompt[1:] {
				if tok < firstWord || tok >= vocabSize {
					t.Fatalf("%s: request %d has token %d outside [%d,%d)", w.name, i, tok, firstWord, vocabSize)
				}
			}
		}
	}
	// serve_shared_prefix: 64 distinct prompts sharing their first 160 tokens.
	reqs := sharedPrefixRequests(3)
	distinct := map[uint64]bool{}
	for _, rq := range reqs {
		distinct[listHash([]request{rq})] = true
		if !reflect.DeepEqual(rq.Prompt[:160], reqs[0].Prompt[:160]) {
			t.Fatal("serve_shared_prefix: system prompt differs between requests")
		}
	}
	if len(distinct) != 64 {
		t.Errorf("serve_shared_prefix: %d distinct prompts, want 64", len(distinct))
	}
	// serve_mixed: every prompt unique, one in four long.
	long := 0
	distinct = map[uint64]bool{}
	for _, rq := range mixedRequests(3) {
		distinct[listHash([]request{rq})] = true
		if len(rq.Prompt) == 160 {
			long++
		}
	}
	if len(distinct) != 160 || long != 40 {
		t.Errorf("serve_mixed: %d distinct prompts and %d long, want 160 and 40", len(distinct), long)
	}
}

func TestTraceArg(t *testing.T) {
	cases := map[string][]string{
		"-trace":              {"-trace=1"},
		"--trace 1 -seed 2":   {"--trace", "1", "-seed", "2"},
		"--trace 0":           {"--trace", "0"},
		"-trace -workload x":  {"-trace=1", "-workload", "x"},
		"-workload x --trace": {"-workload", "x", "-trace=1"},
	}
	for in, want := range cases {
		if got := traceArg(strings.Fields(in)); !reflect.DeepEqual(got, want) {
			t.Errorf("traceArg(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{name: "request", id: 1, start: 0, end: 10 * time.Millisecond},
		{name: "model.prefill", id: 2, parent: 1, start: 0, end: 4 * time.Millisecond},
		{name: "model.decode_step", id: 3, parent: 1, start: 4 * time.Millisecond, end: 7 * time.Millisecond},
	}
	self := tr.selfTimes()
	if self["request"] != 3 || self["model.prefill"] != 4 || self["model.decode_step"] != 3 {
		t.Errorf("self times = %v, want request 3, prefill 4, decode_step 3", self)
	}
	var none *tracer
	if id := none.begin("x", "y", 0, 0, 0); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	none.end(0) // must not panic
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json and the tables in the
// code together: workloads, end-to-end metrics with unit, direction and
// bound, per-layer metrics with unit, the run length and the path.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q, implemented %q (or their reasons differ)", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the program has %+v", i, got, d)
		}
	}
	want := perLayerNames()
	if len(b.PerLayer) != len(want) {
		t.Errorf("%d per-layer metrics declared, %d implemented", len(b.PerLayer), len(want))
	}
	for _, p := range b.PerLayer {
		if unit, ok := want[p.Name]; !ok || unit != p.Unit {
			t.Errorf("per_layer %q (%s): the program has unit %q, present=%v", p.Name, p.Unit, unit, ok)
		}
	}
}
