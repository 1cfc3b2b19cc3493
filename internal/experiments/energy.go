package experiments

import "recross/internal/energy"

// Fig15 reproduces the energy comparison: per-architecture energy breakdown
// (ACT / RD / off-chip IO / PE / static) and the savings of ReCross over
// each baseline. Paper: ReCross saves 58.5 % vs CPU, 57.2 % vs TensorDIMM,
// 51.9 % vs RecNMP, 28.5 % vs TRiM-G, 23.7 % vs TRiM-B.
func Fig15(cfg Config) (*Table, error) {
	stats, err := kaggle(cfg).measureArches()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Fig. 15 — energy breakdown (millijoules per batch) and ReCross savings",
		Note:  "paper savings vs: CPU 58.5%, TensorDIMM 57.2%, RecNMP 51.9%, TRiM-G 28.5%, TRiM-B 23.7%",
		Cols:  []string{"architecture", "ACT", "RD", "IO", "PE", "cache", "static", "total", "recross-saves"},
	}
	rcTotal := stats["recross"].Energy.Total()
	for _, name := range ArchNames {
		e := stats[name].Energy
		var saves any = "-"
		if name != "recross" && e.Total() > 0 {
			saves = pct(100 * (1 - rcTotal/e.Total()))
		}
		t.AddRow(name, f4(e.ACT*1e3), f4(e.RD*1e3), f4(e.IO*1e3), f4(e.PE*1e3), f4(e.Cache*1e3),
			f4(e.Static*1e3), f4(e.Total()*1e3), saves)
	}
	return t, nil
}

// Table3 reproduces the area-overhead table.
func Table3() *Table {
	t := &Table{
		Title: "Table 3 — extra area overhead per architecture",
		Note:  "rank PE per DIMM buffer chip; BG/bank PEs per DRAM chip (40nm-calibrated model)",
		Cols:  []string{"architecture", "rank-PE-mm2", "chip-PE-mm2"},
	}
	for _, a := range energy.TableAreas() {
		t.AddRow(a.Arch, f2(a.RankPEMM2), f2(a.ChipPEMM2))
	}
	return t
}
