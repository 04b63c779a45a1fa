package chaos

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ft2/internal/fault"
	"ft2/internal/model"
)

func chaosCfg(t *testing.T) model.Config {
	t.Helper()
	cfg, err := model.ConfigByName("qwen2-1.5b-sim")
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func testViews() []SessionView {
	return []SessionView{
		{ID: 101, Step: 4, Budget: 3, Rows: 12},
		{ID: 102, Step: 0, Budget: 2, Rows: 8},
		{ID: 103, Step: 9, Budget: 1, Rows: 17},
	}
}

func planString(faults []SessionFault) string {
	s := ""
	for _, f := range faults {
		s += fmt.Sprintf("%d:%s;", f.Session, f.Site)
	}
	return s
}

func TestNewEngineRejectsZeroRate(t *testing.T) {
	if _, err := NewEngine(Config{}, chaosCfg(t)); err == nil {
		t.Fatal("zero rate must be rejected")
	}
}

// A mix that is not a probability split, or a rate that is not a positive
// finite number, fails construction instead of serving a different mix (a
// {0.9, 0.9} mix delivered a KV share of 0.1) or injecting nothing (NaN).
func TestNewEngineRejectsInvalidMixAndRate(t *testing.T) {
	nan := math.NaN()
	for _, cfg := range []Config{
		{Rate: 1, Mix: fault.TargetMix{Weight: 0.9, KV: 0.9}},
		{Rate: 1, Mix: fault.TargetMix{Weight: -0.2}},
		{Rate: 1, Mix: fault.TargetMix{Weight: nan}},
		{Rate: 1, Mix: fault.TargetMix{KV: nan}},
		{Rate: nan},
		{Rate: math.Inf(1)},
		{Rate: -1},
	} {
		if _, err := NewEngine(cfg, chaosCfg(t)); err == nil {
			t.Errorf("NewEngine(rate=%g mix=%+v) accepted", cfg.Rate, cfg.Mix)
		}
	}
	if _, err := NewEngine(Config{Rate: 0.5, Mix: fault.TargetMix{Weight: 0.5, KV: 0.5}}, chaosCfg(t)); err != nil {
		t.Errorf("a full split is valid: %v", err)
	}
}

// The fault stream is a pure function of the seed and the arrival order.
func TestPlanSliceDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Rate: 1.5, Burst: 3, Mix: fault.TargetMix{Weight: 0.3, KV: 0.2}}
	mcfg := chaosCfg(t)
	a, err := NewEngine(cfg, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(cfg, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		weightOK := i%2 == 0
		pa, pb := a.PlanSlice(testViews(), weightOK), b.PlanSlice(testViews(), weightOK)
		if planString(pa) != planString(pb) {
			t.Fatalf("slice %d: plans diverge:\n%s\n%s", i, planString(pa), planString(pb))
		}
	}
}

// Every planned site must be applicable: activation steps inside the
// victim's slice and element within the layer width, KV positions within the
// victim's resident rows, weight sites only on all-victim groups.
func TestPlanSliceSitesInRange(t *testing.T) {
	mcfg := chaosCfg(t)
	e, err := NewEngine(Config{Seed: 7, Rate: 3, Burst: 2, Mix: fault.TargetMix{Weight: 0.4, KV: 0.3}}, mcfg)
	if err != nil {
		t.Fatal(err)
	}
	views := testViews()
	sawA, sawK, sawW := 0, 0, 0
	for i := 0; i < 200; i++ {
		for _, f := range e.PlanSlice(views, true) {
			v := views[f.Session]
			switch f.Site.Target {
			case fault.TargetActivation:
				sawA++
				if f.Site.Step <= v.Step || f.Site.Step > v.Step+v.Budget {
					t.Fatalf("activation step %d outside slice (%d, %d]", f.Site.Step, v.Step, v.Step+v.Budget)
				}
				if f.Site.Elem >= mcfg.OutDim(f.Site.Layer.Kind) {
					t.Fatalf("activation elem %d beyond layer width %d", f.Site.Elem, mcfg.OutDim(f.Site.Layer.Kind))
				}
				if len(f.Site.Bits) == 0 {
					t.Fatal("no bits planned")
				}
			case fault.TargetKVCache:
				sawK++
				pos, col := f.Site.Elem/mcfg.Hidden, f.Site.Elem%mcfg.Hidden
				if pos >= v.Rows || col >= mcfg.Hidden {
					t.Fatalf("kv (pos=%d col=%d) beyond %d resident rows", pos, col, v.Rows)
				}
				if k := f.Site.Layer.Kind; k != model.KProj && k != model.VProj {
					t.Fatalf("kv fault on non-KV kind %v", k)
				}
			case fault.TargetWeight:
				sawW++
				we := mcfg.OutDim(f.Site.Layer.Kind) * mcfg.InDim(f.Site.Layer.Kind)
				if f.Site.Elem >= we {
					t.Fatalf("weight elem %d beyond matrix size %d", f.Site.Elem, we)
				}
			}
		}
	}
	if sawA == 0 || sawK == 0 || sawW == 0 {
		t.Fatalf("target mix never exercised: act=%d kv=%d weight=%d", sawA, sawK, sawW)
	}
}

// A mixed group must never see weight corruption: weight arrivals demote to
// activation flips.
func TestPlanSliceWeightDemotion(t *testing.T) {
	e, err := NewEngine(Config{Seed: 3, Rate: 2, Mix: fault.TargetMix{Weight: 1}}, chaosCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		for _, f := range e.PlanSlice(testViews(), false) {
			if f.Site.Target != fault.TargetActivation {
				t.Fatalf("mixed group got a %v fault: %+v", f.Site.Target, f)
			}
		}
	}
}

// No victims, no faults — and an empty plan costs no RNG state that would
// shift later slices (checked implicitly by determinism above).
func TestPlanSliceNoVictims(t *testing.T) {
	e, err := NewEngine(Config{Seed: 1, Rate: 10}, chaosCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	if faults := e.PlanSlice(nil, true); len(faults) != 0 {
		t.Fatalf("faults with no victims: %+v", faults)
	}
}

// The arrival count tracks Rate in expectation.
func TestPlanSliceRate(t *testing.T) {
	e, err := NewEngine(Config{Seed: 5, Rate: 1.5}, chaosCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	const slices = 2000
	for i := 0; i < slices; i++ {
		total += len(e.PlanSlice(testViews(), true))
	}
	mean := float64(total) / slices
	if mean < 1.35 || mean > 1.65 {
		t.Fatalf("mean arrivals %.3f far from configured rate 1.5", mean)
	}
}

// Record journals JSONL, bounds the ring, and keeps counters by kind.
func TestRecordJournalAndCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	e, err := NewEngine(Config{Seed: 1, Rate: 1, Journal: path, MaxEvents: 4}, chaosCfg(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e.Record(Event{Kind: EvInject, Target: "activation", Session: int64(i)})
	}
	e.Record(Event{Kind: EvInject, Target: "weight"})
	e.Record(Event{Kind: EvInject, Target: "kv"})
	e.Record(Event{Kind: EvScrubDetect, Replica: 1})
	e.Record(Event{Kind: EvRebuild, Replica: 1})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	c := e.Counters()
	want := Counters{InjectedActivation: 6, InjectedWeight: 1, InjectedKV: 1, ScrubDetected: 1, Rebuilds: 1}
	if c != want {
		t.Fatalf("counters %+v, want %+v", c, want)
	}
	if c.Injected() != 8 {
		t.Fatalf("Injected() = %d, want 8", c.Injected())
	}

	ring := e.Events()
	if len(ring) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(ring))
	}
	if ring[len(ring)-1].Seq != 10 || ring[0].Seq != 7 {
		t.Fatalf("ring seqs [%d..%d], want [7..10]", ring[0].Seq, ring[len(ring)-1].Seq)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var lines []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 10 {
		t.Fatalf("journal holds %d events, want all 10", len(lines))
	}
	for i, ev := range lines {
		if ev.Seq != int64(i+1) {
			t.Fatalf("journal seq %d at line %d", ev.Seq, i)
		}
	}
}
