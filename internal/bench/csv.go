package bench

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/gee"
)

// Machine-readable exports of every experiment's results, for plotting
// the figures outside this repository.

// WriteTableICSV emits the measured Table I rows.
func WriteTableICSV(w io.Writer, rows []TableIRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"graph", "n", "m",
		"reference_s", "optimized_s", "ligra_serial_s", "ligra_parallel_s", "sharded_parallel_s",
		"speedup_vs_reference", "speedup_vs_optimized", "speedup_vs_serial", "sharded_vs_parallel"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Graph,
			strconv.Itoa(r.N),
			strconv.FormatInt(r.M, 10),
			fmtF(r.Reference.Seconds()),
			fmtF(r.Optimized.Seconds()),
			fmtF(r.Serial.Seconds()),
			fmtF(r.Parallel.Seconds()),
			fmtF(r.Sharded.Seconds()),
			fmtF(r.SpeedupVsReference),
			fmtF(r.SpeedupVsOptimized),
			fmtF(r.SpeedupVsSerial),
			fmtF(r.ShardedVsParallel),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig3CSV emits the strong-scaling points.
func WriteFig3CSV(w io.Writer, points []ScalingPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cores", "runtime_s", "speedup"}); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write([]string{
			strconv.Itoa(p.Cores), fmtF(p.Runtime.Seconds()), fmtF(p.Speedup),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFig4CSV emits the edge-sweep series, one row per size with one
// column per implementation (empty when skipped).
func WriteFig4CSV(w io.Writer, points []Fig4Point) error {
	cw := csv.NewWriter(w)
	header := []string{"log2_edges", "edges"}
	for _, im := range fig4Impls {
		header = append(header, im.String()+"_s")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{strconv.Itoa(p.Log2Edges), strconv.FormatInt(p.Edges, 10)}
		for _, im := range fig4Impls {
			if t, ok := p.Runtimes[im]; ok {
				rec = append(rec, fmtF(t.Seconds()))
			} else {
				rec = append(rec, "")
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteWInitCSV emits the phase-split sweep.
func WriteWInitCSV(w io.Writer, points []WInitPoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"avg_degree", "n", "m", "winit_s", "edgemap_s", "winit_pct"}); err != nil {
		return err
	}
	for _, p := range points {
		if err := cw.Write([]string{
			fmtF(p.AvgDegree), strconv.Itoa(p.N), strconv.FormatInt(p.M, 10),
			fmtF(p.WInit.Seconds()), fmtF(p.EdgeMap.Seconds()), fmtF(p.WInitPct),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func fmtF(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }

// ImplColumn returns the canonical CSV column label for an impl.
func ImplColumn(im gee.Impl) string { return im.String() + "_s" }
