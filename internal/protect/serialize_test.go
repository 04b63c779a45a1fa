package protect

import (
	"bytes"
	"hash/fnv"
	"testing"

	"ft2/internal/model"
)

func TestSaveDeterministicOrder(t *testing.T) {
	build := func(order []model.LayerKind) string {
		s := NewStore()
		for _, k := range order {
			s.Set(SiteKey{Layer: model.LayerRef{Block: 0, Kind: k}, Site: model.SiteLinearOut}, Bounds{-1, 1})
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]model.LayerKind{model.VProj, model.FC2, model.KProj})
	b := build([]model.LayerKind{model.KProj, model.VProj, model.FC2})
	if a != b {
		t.Error("Save output must be insertion-order independent")
	}
}

// TestSaveBytesPinned pins Save's bytes for a store over several blocks,
// every layer kind and both sites: the campaign journal fingerprints a run's
// offline bounds by them, so a change here would silently stop every saved
// campaign from resuming.
func TestSaveBytesPinned(t *testing.T) {
	s := NewStore()
	for _, block := range []int{0, 1, 7, 12} {
		for k := model.LayerKind(0); int(k) < model.NumLayerKinds; k++ {
			for site := model.SiteLinearOut; site <= model.SiteActivationOut; site++ {
				v := float32(block*100+int(k)*10+int(site)) + 0.25
				s.Set(SiteKey{Layer: model.LayerRef{Block: block, Kind: k}, Site: site}, Bounds{-v / 3, v * 1.5})
			}
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	if got, want := h.Sum64(), uint64(0xb2acb40ad10a195a); got != want || buf.Len() != 9053 {
		t.Fatalf("Save wrote %d bytes hashing to %#x, want 9053 hashing to %#x", buf.Len(), got, want)
	}
}
