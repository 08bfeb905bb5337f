package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/gee"
)

// TableIRow is one measured row of Table I.
type TableIRow struct {
	Graph     string
	N         int
	M         int64
	Reference time.Duration // "GEE-Python" column (faithful Algorithm 1)
	Optimized time.Duration // "Numba Serial" column
	Serial    time.Duration // "GEE-Ligra Serial" column
	Parallel  time.Duration // "GEE-Ligra Parallel" column
	Sharded   time.Duration // GEE-Sharded: destination-sharded, no atomics

	// Speedup columns exactly as the paper reports them.
	SpeedupVsReference float64 // parallel vs GEE(-Python analog)
	SpeedupVsOptimized float64 // parallel vs Numba analog
	SpeedupVsSerial    float64 // parallel vs Ligra serial
	// ShardedVsParallel extends the table beyond the paper: the atomic
	// parallel time over the sharded time (> 1 means sharding wins).
	ShardedVsParallel float64
}

// RunTableI measures every implementation on every Table I stand-in.
// Graph construction happens between measurements and is not timed.
func RunTableI(cfg Config, progress io.Writer) ([]TableIRow, error) {
	cfg = cfg.withDefaults()
	rows := make([]TableIRow, 0, len(tableISpecs))
	for _, spec := range tableISpecs {
		if progress != nil {
			n, m := spec.ScaledSize(cfg.ScaleDiv)
			fmt.Fprintf(progress, "# preparing %s stand-in (n=%d, m=%d, div=%d)\n",
				spec.Name, n, m, cfg.ScaleDiv)
		}
		w := prepareWorkload(spec, cfg)
		row := TableIRow{Graph: w.Name, N: w.EL.N, M: int64(len(w.EL.Edges))}
		var err error
		if !cfg.SkipReference {
			if row.Reference, err = timeImpl(w, gee.Reference, cfg); err != nil {
				return nil, err
			}
		}
		if row.Optimized, err = timeImpl(w, gee.Optimized, cfg); err != nil {
			return nil, err
		}
		if row.Serial, err = timeImpl(w, gee.LigraSerial, cfg); err != nil {
			return nil, err
		}
		if row.Parallel, err = timeImpl(w, gee.LigraParallel, cfg); err != nil {
			return nil, err
		}
		if row.Sharded, err = timeImpl(w, gee.ShardedParallel, cfg); err != nil {
			return nil, err
		}
		if row.Parallel > 0 {
			if row.Reference > 0 {
				row.SpeedupVsReference = row.Reference.Seconds() / row.Parallel.Seconds()
			}
			row.SpeedupVsOptimized = row.Optimized.Seconds() / row.Parallel.Seconds()
			row.SpeedupVsSerial = row.Serial.Seconds() / row.Parallel.Seconds()
			if row.Sharded > 0 {
				row.ShardedVsParallel = row.Parallel.Seconds() / row.Sharded.Seconds()
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderTableI prints the measured table next to the paper's numbers.
func RenderTableI(w io.Writer, rows []TableIRow, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Table I reproduction — K=%d, %.0f%% labels, %d workers, scale 1/%d\n",
		cfg.K, cfg.LabelFraction*100, cfg.Workers, cfg.ScaleDiv)
	fmt.Fprintf(w, "%-17s %10s %11s | %10s %10s %10s %10s %10s | %8s %8s %8s %8s\n",
		"Graph", "n", "s", "Reference", "Optimized", "LigraSer", "LigraPar", "Sharded",
		"vs Ref", "vs Opt", "vs Ser", "Shd/Par")
	for _, r := range rows {
		ref := "-"
		vsRef := "-"
		if r.Reference > 0 {
			ref = fmtSecs(r.Reference)
			vsRef = fmt.Sprintf("%.0fx", r.SpeedupVsReference)
		}
		fmt.Fprintf(w, "%-17s %10d %11d | %10s %10s %10s %10s %10s | %8s %7.1fx %7.1fx %7.2fx\n",
			r.Graph, r.N, r.M,
			ref, fmtSecs(r.Optimized), fmtSecs(r.Serial), fmtSecs(r.Parallel), fmtSecs(r.Sharded),
			vsRef, r.SpeedupVsOptimized, r.SpeedupVsSerial, r.ShardedVsParallel)
	}
	fmt.Fprintln(w, "\nPaper's Table I (24-core Xeon, full-size datasets), for shape comparison:")
	fmt.Fprintf(w, "%-17s %10s %10s %10s %10s | %8s %8s %8s\n",
		"Graph", "GEE-Py", "Numba", "LigraSer", "LigraPar", "vs Py", "vs Numba", "vs Ser")
	for _, spec := range tableISpecs {
		p := paperTableI[spec.Name]
		fmt.Fprintf(w, "%-17s %9.2fs %9.2fs %9.2fs %9.3fs | %7.0fx %7.1fx %7.1fx\n",
			spec.Name, p[0], p[1], p[2], p[3], p[0]/p[3], p[1]/p[3], p[2]/p[3])
	}
	for _, r := range rows {
		if r.Graph == largestSpec().Name && r.Optimized > 0 {
			fmt.Fprintln(w)
			renderFig2(w, r)
		}
	}
}

// renderFig2 prints Figure 2 from the largest graph's Table I row: its
// runtimes normalized to the compiled serial baseline (paper: "Runtimes
// for Friendster, normalized to Numba Serial"), each beside the
// paper's bar: Ligra serial 0.69 (31% below Numba), Ligra parallel ≈1/17.
func renderFig2(w io.Writer, r TableIRow) {
	fmt.Fprintf(w, "Figure 2 reproduction — %s stand-in, runtimes normalized to Optimized serial\n", r.Graph)
	bars := []struct {
		name  string
		abs   time.Duration
		paper float64
	}{
		{"Optimized (Numba analog)", r.Optimized, 1},
		{"GEE-Ligra serial", r.Serial, 0.69},
		{"GEE-Ligra parallel", r.Parallel, 1.0 / 17},
	}
	for _, b := range bars {
		norm := b.abs.Seconds() / r.Optimized.Seconds()
		width := min(int(norm*40+0.5), 60)
		fmt.Fprintf(w, "  %-26s %6.3f (paper %5.3f) %-8s |%s\n",
			b.name, norm, b.paper, fmtSecs(b.abs), strings.Repeat("#", width))
	}
}

// fmtSecs renders a duration in seconds with sensible precision.
func fmtSecs(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0fs", s)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	case s >= 0.001:
		return fmt.Sprintf("%.1fms", s*1000)
	default:
		return fmt.Sprintf("%.0fµs", s*1e6)
	}
}
