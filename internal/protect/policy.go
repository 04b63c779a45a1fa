package protect

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"ft2/internal/model"
)

// Adaptive per-layer protection tiers. FT2's insight is that layer kinds
// differ wildly in vulnerability ("Not All Errors Are Equal" makes the same
// point per-layer), so paying one uniform protection everywhere wastes
// overhead where faults are benign and under-protects where they are not. A
// Policy assigns each layer kind the cheapest sufficient defense:
//
//	none     — unprotected (faults there almost never corrupt output)
//	ft2      — range restriction from first-token bounds (cheap clamp)
//	abft     — checksum verify + recompute-repair (exact, catches in-range
//	           flips FT2's clamp passes through)
//	dmr      — full duplicated execution of the layer (exact, dearest)
//	abft+ft2 — checksum repair first, range clamp second: the recompute
//	           fixes transient faults exactly, the clamp still bounds
//	           fallout from persistent weight/KV corruption that checksums
//	           can detect but not repair
type Tier int

const (
	TierNone Tier = iota
	TierFT2
	TierABFT
	TierDMR
	TierABFTFT2
)

// String implements fmt.Stringer (the on-disk names).
func (t Tier) String() string {
	switch t {
	case TierFT2:
		return "ft2"
	case TierABFT:
		return "abft"
	case TierDMR:
		return "dmr"
	case TierABFTFT2:
		return "abft+ft2"
	default:
		return "none"
	}
}

// ParseTier is the inverse of String.
func ParseTier(s string) (Tier, error) {
	for _, t := range []Tier{TierNone, TierFT2, TierABFT, TierDMR, TierABFTFT2} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("protect: unknown tier %q", s)
}

// Policy maps layer kinds to protection tiers. Kinds absent from Tiers are
// TierNone. The zero Policy protects nothing.
type Policy struct {
	Tiers map[model.LayerKind]Tier
}

// Tier returns the tier for a kind (TierNone when unset).
func (p *Policy) Tier(k model.LayerKind) Tier {
	if p == nil || p.Tiers == nil {
		return TierNone
	}
	return p.Tiers[k]
}

// Kinds returns the kinds assigned the given tiers (any of them), sorted.
func (p *Policy) Kinds(tiers ...Tier) []model.LayerKind {
	var out []model.LayerKind
	if p == nil {
		return out
	}
	for _, k := range model.AllLayerKinds {
		for _, t := range tiers {
			if p.Tiers[k] == t && t != TierNone {
				out = append(out, k)
				break
			}
		}
	}
	return out
}

// Compile resolves the policy against a model family into the per-layer-kind
// tier table the protection controller indexes on every hook call. A policy
// that mentions a kind the family does not have (an OPT-derived policy loaded
// for a Llama model) is an error naming that kind: its entries would never
// fire while the family's own kinds stayed at TierNone, silently serving
// "protected" requests unprotected.
func (p *Policy) Compile(family model.Family) ([model.NumLayerKinds]Tier, error) {
	var table [model.NumLayerKinds]Tier
	if p == nil {
		return table, nil
	}
	var present [model.NumLayerKinds]bool
	for _, k := range family.LayerKinds() {
		present[k] = true
	}
	for _, k := range model.AllLayerKinds {
		t, ok := p.Tiers[k]
		if !ok {
			continue
		}
		if !present[k] {
			return table, fmt.Errorf("protect: policy assigns %s=%s but the %s family has no %s layer", k, t, family, k)
		}
		table[k] = t
	}
	return table, nil
}

// String renders the policy compactly for logs: "K_PROJ=none V_PROJ=ft2 …"
// over the kinds it mentions, sorted.
func (p *Policy) String() string {
	if p == nil || len(p.Tiers) == 0 {
		return "none"
	}
	s := ""
	for _, k := range model.AllLayerKinds {
		if t, ok := p.Tiers[k]; ok {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s=%s", k, t)
		}
	}
	return s
}

// policyFile is the on-disk JSON schema of a protection policy, versioned
// like the bounds files.
type policyFile struct {
	Version int           `json:"version"`
	Entries []policyEntry `json:"entries"`
}

type policyEntry struct {
	Kind string `json:"kind"`
	Tier string `json:"tier"`
	// Profile echoes the campaign evidence the assignment was derived from
	// (optional, informational).
	Profile *KindProfile `json:"profile,omitempty"`
}

const policyFileVersion = 1

// SavePolicy writes the policy as JSON, sorted for reproducible output.
// profiles, when non-nil, attaches the per-kind campaign evidence.
func SavePolicy(w io.Writer, p *Policy, profiles map[model.LayerKind]KindProfile) error {
	entries := make([]policyEntry, 0, len(p.Tiers))
	for k, t := range p.Tiers {
		e := policyEntry{Kind: k.String(), Tier: t.String()}
		if prof, ok := profiles[k]; ok {
			pc := prof
			e.Profile = &pc
		}
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Kind < entries[j].Kind })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(policyFile{Version: policyFileVersion, Entries: entries})
}

// LoadPolicy reads a policy previously written by SavePolicy. Unknown kinds
// or tiers are an error — a typo must not silently weaken protection.
func LoadPolicy(r io.Reader) (*Policy, error) {
	var f policyFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("protect: decoding policy: %w", err)
	}
	if f.Version != policyFileVersion {
		return nil, fmt.Errorf("protect: unsupported policy file version %d", f.Version)
	}
	p := &Policy{Tiers: make(map[model.LayerKind]Tier, len(f.Entries))}
	for _, e := range f.Entries {
		i := slices.IndexFunc(model.AllLayerKinds, func(k model.LayerKind) bool { return k.String() == e.Kind })
		if i < 0 {
			return nil, fmt.Errorf("protect: unknown layer kind %q", e.Kind)
		}
		kind := model.AllLayerKinds[i]
		tier, err := ParseTier(e.Tier)
		if err != nil {
			return nil, err
		}
		p.Tiers[kind] = tier
	}
	return p, nil
}

// KindProfile is one layer kind's measured vulnerability: SDC rates from
// unprotected and FT2-protected campaigns over the same fault distribution,
// plus the trial count behind them.
type KindProfile struct {
	Unprotected float64 `json:"unprotected_sdc"`
	FT2         float64 `json:"ft2_sdc"`
	Trials      int     `json:"trials"`
}

// DerivePolicy turns campaign evidence into a tier assignment for every
// layer kind of the family:
//
//   - a kind whose unprotected SDC rate is already negligible gets TierNone —
//     protection there buys nothing;
//   - a vulnerable kind that FT2 reduces to negligible gets TierFT2 — the
//     cheapest sufficient defense;
//   - a vulnerable kind with residual SDCs under FT2 (in-range flips the
//     clamp passes) gets TierABFTFT2: checksum repair for the residue, the
//     clamp retained for persistent-corruption fallout;
//   - a vulnerable kind FT2 does not cover at all in this family profile
//     (no FT2 measurement, Trials 0) gets TierABFT.
//
// The negligible threshold is 1%, matching the paper's reading of Figure 6
// (kinds below it are noise at campaign scale).
func DerivePolicy(family model.Family, profiles map[model.LayerKind]KindProfile) *Policy {
	const negligible = 0.01
	p := &Policy{Tiers: make(map[model.LayerKind]Tier)}
	for _, k := range family.LayerKinds() {
		prof, ok := profiles[k]
		if !ok || prof.Unprotected <= negligible {
			p.Tiers[k] = TierNone
			continue
		}
		switch {
		case prof.Trials == 0:
			p.Tiers[k] = TierABFT
		case prof.FT2 <= negligible:
			p.Tiers[k] = TierFT2
		default:
			p.Tiers[k] = TierABFTFT2
		}
	}
	return p
}
