package protect

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ft2/internal/model"
)

func TestTierRoundTrip(t *testing.T) {
	for _, tier := range []Tier{TierNone, TierFT2, TierABFT, TierDMR, TierABFTFT2} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = %v, %v", tier.String(), got, err)
		}
	}
	if _, err := ParseTier("triple-modular"); err == nil {
		t.Error("unknown tier must error")
	}
}

func TestPolicySaveLoadRoundTrip(t *testing.T) {
	p := &Policy{Tiers: map[model.LayerKind]Tier{
		model.VProj:    TierABFTFT2,
		model.OutProj:  TierFT2,
		model.DownProj: TierFT2,
		model.QProj:    TierNone,
		model.KProj:    TierABFT,
	}}
	profiles := map[model.LayerKind]KindProfile{
		model.VProj: {Unprotected: 0.31, FT2: 0.04, Trials: 200},
	}
	var buf bytes.Buffer
	if err := SavePolicy(&buf, p, profiles); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPolicy(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range p.Tiers {
		if got.Tier(k) != want {
			t.Errorf("kind %v round-tripped to %v, want %v", k, got.Tier(k), want)
		}
	}
	// Unmentioned kinds default to none.
	if got.Tier(model.FC1) != TierNone {
		t.Error("absent kind must default to TierNone")
	}
}

func TestPolicyLoadRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{"version":99,"entries":[]}`,
		`{"version":1,"entries":[{"kind":"NOT_A_KIND","tier":"ft2"}]}`,
		`{"version":1,"entries":[{"kind":"V_PROJ","tier":"quadruple"}]}`,
	} {
		if _, err := LoadPolicy(strings.NewReader(bad)); err == nil {
			t.Errorf("LoadPolicy(%s) must error", bad)
		}
	}
}

func TestPolicyKinds(t *testing.T) {
	p := &Policy{Tiers: map[model.LayerKind]Tier{
		model.VProj:   TierABFTFT2,
		model.OutProj: TierFT2,
		model.KProj:   TierABFT,
	}}
	ft2 := p.Kinds(TierFT2, TierABFTFT2)
	if len(ft2) != 2 {
		t.Errorf("Kinds(ft2, abft+ft2) = %v", ft2)
	}
	abft := p.Kinds(TierABFT, TierABFTFT2)
	if len(abft) != 2 {
		t.Errorf("Kinds(abft, abft+ft2) = %v", abft)
	}
	if got := (&Policy{}).Kinds(TierFT2); len(got) != 0 {
		t.Errorf("empty policy Kinds = %v", got)
	}
}

// DerivePolicy assigns the cheapest sufficient tier per the documented
// thresholds.
func TestDerivePolicy(t *testing.T) {
	profiles := map[model.LayerKind]KindProfile{
		model.VProj:    {Unprotected: 0.30, FT2: 0.05, Trials: 200},  // residual → abft+ft2
		model.DownProj: {Unprotected: 0.25, FT2: 0.002, Trials: 200}, // clamp suffices → ft2
		model.QProj:    {Unprotected: 0.004, FT2: 0, Trials: 200},    // benign → none
		model.KProj:    {Unprotected: 0.12},                          // no FT2 evidence → abft
	}
	p := DerivePolicy(model.FamilyLlama, profiles)
	want := map[model.LayerKind]Tier{
		model.VProj:    TierABFTFT2,
		model.DownProj: TierFT2,
		model.QProj:    TierNone,
		model.KProj:    TierABFT,
		model.UpProj:   TierNone, // unprofiled
	}
	for k, tier := range want {
		if p.Tier(k) != tier {
			t.Errorf("derived %v for %v, want %v", p.Tier(k), k, tier)
		}
	}
	if _, ok := p.Tiers[model.FC1]; ok {
		t.Error("FC1 is not a Llama kind and must not be assigned")
	}
}

func TestPolicyCompile(t *testing.T) {
	p := &Policy{Tiers: map[model.LayerKind]Tier{
		model.VProj: TierFT2, model.GateProj: TierNone, model.DownProj: TierABFTFT2,
	}}
	table, err := p.Compile(model.FamilyLlama)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range model.AllLayerKinds {
		if table[k] != p.Tier(k) {
			t.Errorf("table[%v] = %v, want %v", k, table[k], p.Tier(k))
		}
	}
	// Any mention of a kind the family lacks — even at tier none — marks a
	// policy derived for a different family.
	for _, family := range []model.Family{model.FamilyOPT, model.FamilyGPTJ} {
		if _, err := p.Compile(family); err == nil || !strings.Contains(err.Error(), "GATE_PROJ") {
			t.Errorf("%v: err = %v, want one naming GATE_PROJ", family, err)
		}
	}
	if table, err := (*Policy)(nil).Compile(model.FamilyOPT); err != nil || table != [model.NumLayerKinds]Tier{} {
		t.Errorf("nil policy compiled to %v, %v", table, err)
	}
}

// FuzzLoadPolicy: arbitrary bytes never panic the policy reader; a policy
// that loads round-trips SavePolicy → LoadPolicy to an equal value and
// compiles or errors — never panics — against every family.
func FuzzLoadPolicy(f *testing.F) {
	f.Add([]byte(`{"version":1,"entries":[{"kind":"V_PROJ","tier":"abft+ft2"},{"kind":"FC1","tier":"none"}]}`))
	f.Add([]byte(`{"version":1,"entries":[{"kind":"DOWN_PROJ","tier":"dmr","profile":{"unprotected_sdc":0.3,"ft2_sdc":0.01,"trials":200}}]}`))
	f.Add([]byte(`{"version":1,"entries":[{"kind":"V_PROJ","tier":"ft2"},{"kind":"V_PROJ","tier":"abft"}]}`))
	f.Add([]byte(`{"version":2,"entries":[]}`))
	f.Add([]byte(`{"version":1,"entries":[{"kind":"V_PROJ","tier":7}]}`))
	f.Add([]byte(`{"version":1,"entries":null}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPolicy(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := SavePolicy(&buf, p, nil); err != nil {
			t.Fatalf("SavePolicy of a loaded policy: %v", err)
		}
		q, err := LoadPolicy(&buf)
		if err != nil {
			t.Fatalf("reloading a saved policy: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the policy: %v -> %v", p, q)
		}
		for _, family := range []model.Family{model.FamilyOPT, model.FamilyGPTJ, model.FamilyLlama} {
			table, err := p.Compile(family)
			if err != nil {
				continue
			}
			for k, tier := range table {
				if tier != p.Tier(model.LayerKind(k)) {
					t.Fatalf("%v: table[%v] = %v, policy says %v", family, model.LayerKind(k), tier, p.Tier(model.LayerKind(k)))
				}
			}
		}
	})
}
