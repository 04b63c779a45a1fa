package model

import (
	"slices"
	"testing"

	"ft2/internal/numerics"
)

// Replicas share every weight matrix of the set; a write through Weight
// copies exactly that matrix into the writing context, so neither a sibling
// nor a later Replica sees it, and a replica's generation is the bits of an
// independently built model.
func TestReplicaCopyOnWrite(t *testing.T) {
	for _, f := range []Family{FamilyOPT, FamilyGPTJ, FamilyLlama} {
		cfg := smallCfg(f)
		m := MustNew(cfg, 7, numerics.FP16)
		a, b := m.Replica(), m.Replica()
		refs := cfg.LinearLayers()
		for _, ref := range refs {
			if a.ReadWeight(ref) != m.ReadWeight(ref) || b.ReadWeight(ref) != m.ReadWeight(ref) {
				t.Fatalf("%v: replicas do not share %v", f, ref)
			}
		}
		pristine := m.WeightChecksum()

		flipped := refs[len(refs)/2]
		w := a.Weight(flipped)
		if w == m.ReadWeight(flipped) {
			t.Fatalf("%v: Weight returned the shared matrix for writing", f)
		}
		if a.Weight(flipped) != w {
			t.Fatalf("%v: a second Weight copied the matrix again", f)
		}
		w.Data[0] = numerics.CorruptValue(w.Data[0], numerics.FP16, []int{14})
		for _, ref := range refs {
			if ref != flipped && a.ReadWeight(ref) != m.ReadWeight(ref) {
				t.Fatalf("%v: writing %v privatized %v too", f, flipped, ref)
			}
		}
		if a.WeightChecksum() == pristine {
			t.Fatalf("%v: the flip did not reach the writing replica", f)
		}
		c := a.Replica()
		for _, x := range []*Model{m, b, c} {
			if x.WeightChecksum() != pristine || x.ReadWeight(flipped) != m.ReadWeight(flipped) {
				t.Fatalf("%v: the flip reached another context", f)
			}
		}

		prompt := []int{1, 5, 9, 13, 2}
		want := MustNew(cfg, 7, numerics.FP16).Generate(prompt, 12)
		for i, x := range []*Model{m, b, c} {
			if got := x.Generate(prompt, 12); !slices.Equal(got, want) {
				t.Fatalf("%v: context %d generates %v, an independent model %v", f, i, got, want)
			}
		}
	}
}

// EnableF16Weights rewrites the weight set in place, so it must refuse once
// a Replica shares it — from the model New built and from a replica alike.
func TestEnableF16WeightsPanicsOnSharedSet(t *testing.T) {
	m := MustNew(smallCfg(FamilyOPT), 1, numerics.FP16)
	r := m.Replica()
	for name, x := range map[string]*Model{"source": m, "replica": r} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: EnableF16Weights on a shared weight set did not panic", name)
				}
			}()
			x.EnableF16Weights()
		}()
	}
	if m.WeightsF16() {
		t.Error("the refused EnableF16Weights still marked the set rounded")
	}
}
