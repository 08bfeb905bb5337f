// Command geebench regenerates the paper's evaluation (§IV): Table I
// with Figure 2 (the largest graph's row, normalized), Figures 3 and 4,
// the atomics ablation, and the W-initialization crossover. It is the
// one driver of internal/bench. Beyond the paper, Table I and the
// ablation also measure the repository's destination-sharded backend
// (GEE-Sharded), which matches the atomic parallel output with zero
// atomic operations.
//
// Usage:
//
//	geebench -exp table1 -scale 64            # Table I and Figure 2 at 1/64 dataset sizes
//	geebench -exp fig3 -scale 32              # strong scaling sweep
//	geebench -exp fig4 -min-log2 13 -max-log2 24
//	geebench -exp all -scale 64
//
// Absolute times are machine- and scale-dependent; the shapes (who wins,
// by what factor, linearity, scaling curve) are the reproduction targets.
// See EXPERIMENTS.md for recorded paper-vs-measured results.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "table1", "experiment: table1 (with Figure 2), fig3, fig4, ablation, winit, all")
		csvDir    = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		scaleDiv  = flag.Int64("scale", 64, "dataset scale divisor (paper size / scale)")
		reps      = flag.Int("reps", 3, "repetitions per measurement (median reported)")
		workers   = flag.Int("workers", 0, "parallel worker count (0 = GOMAXPROCS)")
		k         = flag.Int("k", 50, "number of classes (paper: 50)")
		labelFrac = flag.Float64("label-frac", 0.1, "labeled node fraction (paper: 0.1)")
		skipRef   = flag.Bool("skip-reference", false, "skip the slow faithful-Algorithm-1 rows")
		minLog2   = flag.Int("min-log2", 13, "fig4: smallest log2 edge count")
		maxLog2   = flag.Int("max-log2", 22, "fig4: largest log2 edge count")
		refMax    = flag.Int("ref-max-log2", 22, "fig4: largest log2 edges for the Reference curve")
		graphName = flag.String("graph", "soc-orkut", "ablation: Table I graph stand-in to use")
		seed      = flag.Uint64("seed", 12345, "workload seed")
	)
	flag.Parse()
	cfg := bench.Config{
		ScaleDiv:      *scaleDiv,
		Reps:          *reps,
		Workers:       *workers,
		K:             *k,
		LabelFraction: *labelFrac,
		SkipReference: *skipRef,
		Seed:          *seed,
	}
	if err := run(*exp, cfg, *minLog2, *maxLog2, *refMax, *graphName, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "geebench:", err)
		os.Exit(1)
	}
}

func run(exp string, cfg bench.Config, minLog2, maxLog2, refMax int, graphName, csvDir string) error {
	out, progress := os.Stdout, os.Stderr
	writeCSV := func(name string, write func(w io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, name))
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	runOne := func(name string) error {
		switch name {
		case "table1":
			rows, err := bench.RunTableI(cfg, progress)
			if err != nil {
				return err
			}
			bench.RenderTableI(out, rows, cfg)
			if err := writeCSV("table1.csv", func(w io.Writer) error {
				return bench.WriteTableICSV(w, rows)
			}); err != nil {
				return err
			}
		case "fig3":
			points, err := bench.RunFig3(cfg, nil, progress)
			if err != nil {
				return err
			}
			bench.RenderFig3(out, points)
			if err := writeCSV("fig3.csv", func(w io.Writer) error {
				return bench.WriteFig3CSV(w, points)
			}); err != nil {
				return err
			}
		case "fig4":
			points, err := bench.RunFig4(cfg, minLog2, maxLog2, refMax, nil, progress)
			if err != nil {
				return err
			}
			bench.RenderFig4(out, points)
			if err := writeCSV("fig4.csv", func(w io.Writer) error {
				return bench.WriteFig4CSV(w, points)
			}); err != nil {
				return err
			}
		case "ablation":
			spec, err := bench.FindSpec(graphName)
			if err != nil {
				return err
			}
			res, err := bench.RunAblation(spec, cfg, progress)
			if err != nil {
				return err
			}
			bench.RenderAblation(out, res)
		case "winit":
			points, err := bench.RunWInit(cfg, nil, 0, progress)
			if err != nil {
				return err
			}
			bench.RenderWInit(out, points)
			if err := writeCSV("winit.csv", func(w io.Writer) error {
				return bench.WriteWInitCSV(w, points)
			}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintln(out)
		return nil
	}
	if exp == "all" {
		for _, name := range []string{"table1", "fig3", "fig4", "ablation", "winit"} {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(exp)
}
