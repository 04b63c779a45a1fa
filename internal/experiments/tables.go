package experiments

import (
	"fmt"

	"ft2/internal/arch"
	"ft2/internal/model"
	"ft2/internal/report"
)

// Table1 renders the layer criticality and protection-coverage matrix, with
// the operation that follows each kind — the heuristic's input: critical iff
// "none". Both architecture families are merged into one table (the paper
// lists the union of layer kinds).
func Table1() *report.Table {
	t := report.NewTable("Table 1: layer criticality and protection coverage",
		"Layer", "Critical", "Followed by", "Ranger", "MaxiMals", "Global Clipper", "FT2")
	methods := []arch.Method{arch.MethodRanger, arch.MethodMaxiMals, arch.MethodGlobalClipper, arch.MethodFT2}
	kinds := []model.LayerKind{
		model.KProj, model.QProj, model.VProj, model.OutProj,
		model.FC1, model.FC2, model.UpProj, model.GateProj, model.DownProj,
	}
	familyOf := func(k model.LayerKind) model.Family {
		switch k {
		case model.FC1, model.FC2:
			return model.FamilyOPT
		case model.UpProj, model.GateProj, model.DownProj:
			return model.FamilyLlama
		default:
			return model.FamilyOPT
		}
	}
	for _, k := range kinds {
		fam := familyOf(k)
		crit := "N"
		if arch.IsCritical(fam, k) {
			crit = "Y"
		}
		row := []interface{}{k.String(), crit, arch.NextOp(fam, k).String()}
		for _, m := range methods {
			cov := arch.Coverage(m, fam)
			mark := ""
			if cov[arch.CoveragePoint{Kind: k, Site: model.SiteLinearOut}] {
				mark = "x"
			}
			// Ranger protects activation outputs; Table 1 leaves its linear
			// columns empty (it covers no linear layer), matching the paper.
			row = append(row, mark)
		}
		t.AddRow(row...)
	}
	return t
}

// Table2 renders the model zoo with reference and simulated configurations.
func Table2() *report.Table {
	t := report.NewTable("Table 2: models and tasks",
		"Model", "Ref params", "Task", "Family", "Sim hidden", "Sim blocks", "Sim params")
	for _, cfg := range model.Zoo() {
		t.AddRow(cfg.Name,
			fmt.Sprintf("%.2fB", cfg.RefParams/1e9),
			cfg.TaskTypes, cfg.Family.String(),
			cfg.Hidden, cfg.Blocks, cfg.ParamCount())
	}
	return t
}
