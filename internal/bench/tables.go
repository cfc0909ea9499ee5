package bench

import (
	"fmt"

	"repro/internal/constellation"
	"repro/internal/decoder"
	"repro/internal/fpga"
	"repro/internal/mimo"
	"repro/internal/order"
	"repro/internal/platform"
	"repro/internal/report"
	"repro/internal/sphere"
	"repro/internal/stats"
)

// Table1 reproduces Table I: FPGA resource utilization for the four
// synthesized designs (baseline/optimized × 4-/16-QAM at 10×10).
func Table1() (*report.Table, error) {
	t := report.NewTable("Table I: FPGA resource utilization",
		"", "Baseline 4-QAM", "Baseline 16-QAM", "Optimized 4-QAM", "Optimized 16-QAM")
	designs := make([]*fpga.Design, 0, 4)
	for _, spec := range []struct {
		v   fpga.Variant
		mod constellation.Modulation
	}{
		{fpga.Baseline, constellation.QAM4},
		{fpga.Baseline, constellation.QAM16},
		{fpga.Optimized, constellation.QAM4},
		{fpga.Optimized, constellation.QAM16},
	} {
		d, err := fpga.NewDesign(spec.v, spec.mod, 10, 10)
		if err != nil {
			return nil, err
		}
		designs = append(designs, d)
	}
	rows := []struct {
		name string
		get  func(u fpga.Utilization) string
	}{
		{"Freq (MHz)", func(u fpga.Utilization) string { return fmt.Sprintf("%.0f", u.FreqMHz) }},
		{"LUTs", func(u fpga.Utilization) string { l, _, _, _, _ := u.Frac(); return pct(l) }},
		{"FFs", func(u fpga.Utilization) string { _, f, _, _, _ := u.Frac(); return pct(f) }},
		{"DSPs", func(u fpga.Utilization) string { _, _, d, _, _ := u.Frac(); return pct(d) }},
		{"BRAMs", func(u fpga.Utilization) string { _, _, _, b, _ := u.Frac(); return pct(b) }},
		{"URAMs", func(u fpga.Utilization) string { _, _, _, _, ur := u.Frac(); return pct(ur) }},
	}
	for _, row := range rows {
		cells := []string{row.name}
		for _, d := range designs {
			cells = append(cells, row.get(d.Resources()))
		}
		t.AddRow(cells...)
	}
	return t, nil
}

func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

// Table2Row is one configuration column of Table II.
type Table2Row struct {
	Config          mimo.Config
	CPUPowerW       float64
	FPGAPowerW      float64
	CPUSec          float64
	FPGASec         float64
	CPUEnergyJ      float64
	FPGAEnergyJ     float64
	EnergyReduction float64
}

// Table2 reproduces Table II: power, execution time, and energy for CPU vs
// FPGA-optimized across the paper's four configurations, measured at the
// paper's hardest operating point (4 dB) on the canonical 1000-vector batch.
// It also returns the geo-mean energy reduction (paper: 38.1×).
func Table2(p Params) (*report.Table, []Table2Row, float64, error) {
	configs := []mimo.Config{Cfg10x10QAM4(), Cfg15x15QAM4(), Cfg20x20QAM4(), Cfg10x10QAM16()}
	const snr = 4.0

	cpu := platform.NewCPU()
	rows := make([]Table2Row, 0, len(configs))
	for i, cfg := range configs {
		run, err := mimo.RunParallel(cfg, snr, p.Frames, p.Workers, sortedDFSFactory(cfg.Mod), p.Seed+uint64(i)*271)
		if err != nil {
			return nil, nil, 0, err
		}
		w := workloadFor(cfg, p.Frames)
		design, err := fpga.NewDesign(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx)
		if err != nil {
			return nil, nil, 0, err
		}
		cpuT, err := cpu.BatchTime(w, run.Counters)
		if err != nil {
			return nil, nil, 0, err
		}
		fpgaT, _, err := design.BatchTime(w, run.Counters)
		if err != nil {
			return nil, nil, 0, err
		}
		row := Table2Row{
			Config:      cfg,
			CPUPowerW:   cpu.Power(w),
			FPGAPowerW:  design.Power(),
			CPUSec:      cpuT.Seconds(),
			FPGASec:     fpgaT.Seconds(),
			CPUEnergyJ:  cpu.Power(w) * cpuT.Seconds(),
			FPGAEnergyJ: design.Energy(fpgaT.Seconds()),
		}
		row.EnergyReduction = row.CPUEnergyJ / row.FPGAEnergyJ
		rows = append(rows, row)
	}

	reductions := make([]float64, len(rows))
	for i, r := range rows {
		reductions[i] = r.EnergyReduction
	}
	geomean, err := stats.GeoMean(reductions)
	if err != nil {
		return nil, nil, 0, err
	}

	t := report.NewTable("Table II: power profile for CPU and FPGA (1000-vector batch @ 4 dB)",
		"", "10x10 4-QAM", "15x15 4-QAM", "20x20 4-QAM", "10x10 16-QAM")
	addRow := func(name string, get func(Table2Row) string) {
		cells := []string{name}
		for _, r := range rows {
			cells = append(cells, get(r))
		}
		t.AddRow(cells...)
	}
	addRow("Power(W) CPU", func(r Table2Row) string { return fmt.Sprintf("%.0f", r.CPUPowerW) })
	addRow("Power(W) FPGA", func(r Table2Row) string { return fmt.Sprintf("%.1f", r.FPGAPowerW) })
	addRow("Exec(ms) CPU", func(r Table2Row) string { return fmt.Sprintf("%.1f", r.CPUSec*1e3) })
	addRow("Exec(ms) FPGA", func(r Table2Row) string { return fmt.Sprintf("%.2f", r.FPGASec*1e3) })
	addRow("Energy(J) CPU", func(r Table2Row) string { return fmt.Sprintf("%.3f", r.CPUEnergyJ) })
	addRow("Energy(J) FPGA", func(r Table2Row) string { return fmt.Sprintf("%.4f", r.FPGAEnergyJ) })
	addRow("Energy Reduction", func(r Table2Row) string { return fmt.Sprintf("%.1fx", r.EnergyReduction) })
	t.AddRow("Geo-mean reduction", fmt.Sprintf("%.1fx", geomean))
	return t, rows, geomean, nil
}

// RealTimeAudit tabulates, per configuration and platform, the lowest SNR on
// the paper's axis at which the 1000-vector batch decodes within the 10 ms
// real-time bound — the feasibility story of Figs. 6–10.
func RealTimeAudit(p Params) (*report.Table, error) {
	configs := []mimo.Config{Cfg10x10QAM4(), Cfg15x15QAM4(), Cfg20x20QAM4(), Cfg10x10QAM16()}
	t := report.NewTable("Real-time (10 ms) feasibility: lowest passing SNR (dB)",
		"config", "CPU", "FPGA-baseline", "FPGA-optimized")
	for _, cfg := range configs {
		pts, err := ExecTimeSweep(cfg, SNRAxis(), p)
		if err != nil {
			return nil, err
		}
		find := func(get func(TimingPoint) float64) string {
			for _, pt := range pts {
				if get(pt) <= RealTimeBound.Seconds() {
					return fmt.Sprintf("%g", pt.SNRdB)
				}
			}
			return "never"
		}
		t.AddRow(cfg.String(),
			find(func(pt TimingPoint) float64 { return pt.CPUSec }),
			find(func(pt TimingPoint) float64 { return pt.FPGABaseSec }),
			find(func(pt TimingPoint) float64 { return pt.FPGAOptSec }))
	}
	return t, nil
}

// AblationRow quantifies one design-choice ablation at a fixed operating
// point (10×10 4-QAM, 4 dB): nodes explored and modeled FPGA-optimized time.
type AblationRow struct {
	Name          string
	NodesPerFrame float64
	FPGAOptMs     float64
}

// Ablations runs the DESIGN.md §7 ablation set: child sorting on/off,
// traversal strategy, and K-best truncation.
func Ablations(p Params) (*report.Table, []AblationRow, error) {
	cfg := Cfg10x10QAM4()
	const snr = 4.0
	cons := func() *constellation.Constellation { return constellation.New(cfg.Mod) }
	variants := []struct {
		name    string
		factory func() decoder.Decoder
	}{
		{"SortedDFS (paper)", sortedDFSFactory(cfg.Mod)},
		{"PlainDFS (no child sort)", func() decoder.Decoder {
			return sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.PlainDFS})
		}},
		{"BestFS (global queue)", func() decoder.Decoder {
			return sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.BestFS})
		}},
		{"BFS (GPU-style, scale 8)", func() decoder.Decoder {
			return sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.BFS, RadiusScale: 8})
		}},
		{"BFS K-best 64", func() decoder.Decoder {
			return sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.BFS, RadiusScale: 8, KBest: 64})
		}},
		{"FSD (fixed complexity)", func() decoder.Decoder {
			return sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.FSD})
		}},
		{"RVD (real-valued, 2M levels)", func() decoder.Decoder {
			return sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.RealSE})
		}},
		{"SortedDFS + Babai radius", func() decoder.Decoder {
			return sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.SortedDFS, BabaiRadius: true})
		}},
		{"SortedDFS + SQRD ordering", func() decoder.Decoder {
			return order.NewDecoder(
				sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.SortedDFS}),
				order.SQRD)
		}},
		{"SortedDFS + norm ordering", func() decoder.Decoder {
			return order.NewDecoder(
				sphere.MustNew(sphere.Config{Const: cons(), Strategy: sphere.SortedDFS}),
				order.ByColumnNorm)
		}},
	}

	design, err := fpga.NewDesign(fpga.Optimized, cfg.Mod, cfg.Tx, cfg.Rx)
	if err != nil {
		return nil, nil, err
	}
	t := report.NewTable("Ablations @ 10x10 4-QAM, 4 dB",
		"variant", "nodes/frame", "FPGA-opt time (ms)", "BER")
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		run, err := mimo.RunParallel(cfg, snr, p.Frames, p.Workers, v.factory, p.Seed^0xAB1A71)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: ablation %s: %w", v.name, err)
		}
		w := workloadFor(cfg, p.Frames)
		dur, _, err := design.BatchTime(w, run.Counters)
		if err != nil {
			return nil, nil, err
		}
		row := AblationRow{
			Name:          v.name,
			NodesPerFrame: run.NodesPerFrame(),
			FPGAOptMs:     dur.Seconds() * 1e3,
		}
		rows = append(rows, row)
		t.AddRow(v.name,
			fmt.Sprintf("%.1f", row.NodesPerFrame),
			fmt.Sprintf("%.3f", row.FPGAOptMs),
			report.FormatSI(run.BER()))
	}
	return t, rows, nil
}
