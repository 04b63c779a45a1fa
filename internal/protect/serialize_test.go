package protect

import (
	"bytes"
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
