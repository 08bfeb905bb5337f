// Command geegen generates synthetic benchmark graphs in any supported
// output format.
//
// Usage:
//
//	geegen -model rmat -scale 20 -edges 16000000 -out g.bin -format bin
//	geegen -model er -nodes 100000 -edges 1600000 -out g.txt
//	geegen -model sbm -nodes 10000 -blocks 8 -pin 0.01 -pout 0.0005 -out g.txt -labels-out y.txt
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"

	"repro"
	"repro/internal/sticky"
)

func main() {
	var (
		model     = flag.String("model", "rmat", "generator: rmat, er, sbm")
		scale     = flag.Int("scale", 18, "rmat: log2 vertex count")
		nodes     = flag.Int("nodes", 1<<18, "er/sbm: vertex count")
		edges     = flag.Int64("edges", 1<<22, "edge count (rmat/er)")
		blocks    = flag.Int("blocks", 4, "sbm: number of blocks")
		pin       = flag.Float64("pin", 0.01, "sbm: within-block edge probability")
		pout      = flag.Float64("pout", 0.0005, "sbm: cross-block edge probability")
		seed      = flag.Uint64("seed", 1, "generator seed")
		workers   = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		out       = flag.String("out", "", "output path (required)")
		format    = flag.String("format", "edgelist", "output: edgelist, adj, bin")
		labelsOut = flag.String("labels-out", "", "sbm: write ground-truth block labels here")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*model, *scale, *nodes, *edges, *blocks, *pin, *pout,
		*seed, *workers, *out, *format, *labelsOut); err != nil {
		fmt.Fprintln(os.Stderr, "geegen:", err)
		os.Exit(1)
	}
}

func run(model string, scale, nodes int, edges int64, blocks int,
	pin, pout float64, seed uint64, workers int, out, format, labelsOut string) error {
	if err := validate(model, scale, nodes, edges, blocks, pin, pout); err != nil {
		return err
	}
	var el *repro.EdgeList
	var truth []int32
	switch model {
	case "rmat":
		el = repro.NewRMAT(workers, scale, edges, seed)
	case "er":
		el = repro.NewErdosRenyi(workers, nodes, edges, seed)
	case "sbm":
		el, truth = repro.NewSBM(workers, nodes, blocks, pin, pout, seed)
	default:
		return fmt.Errorf("unknown model %q", model)
	}
	fmt.Fprintf(os.Stderr, "generated %s: n=%d m=%d\n", model, el.N, len(el.Edges))
	if labelsOut != "" {
		if truth == nil {
			return fmt.Errorf("-labels-out requires -model sbm")
		}
		if err := writeLabels(labelsOut, truth); err != nil {
			return err
		}
	}
	switch format {
	case "edgelist":
		return repro.SaveEdgeList(out, el)
	case "adj":
		return repro.SaveAdjacency(out, repro.BuildGraph(workers, el))
	case "bin":
		return repro.SaveBinary(out, repro.BuildGraph(workers, el))
	}
	return fmt.Errorf("unknown format %q", format)
}

// validate refuses the sizes the chosen model cannot represent: vertex
// ids are uint32 below 2^32-1 (the edge-list readers' bound), and every
// model needs at least one vertex.
func validate(model string, scale, nodes int, edges int64, blocks int, pin, pout float64) error {
	if model != "sbm" && edges < 0 {
		return fmt.Errorf("-edges %d: must be >= 0", edges)
	}
	switch model {
	case "rmat":
		if scale < 0 || scale > 31 {
			return fmt.Errorf("-scale %d: must be in [0,31]", scale)
		}
	case "er", "sbm":
		if nodes < 1 || nodes > math.MaxUint32 {
			return fmt.Errorf("-nodes %d: must be in [1,%d]", nodes, uint32(math.MaxUint32))
		}
	}
	if model == "sbm" {
		if blocks < 1 || blocks > nodes {
			return fmt.Errorf("-blocks %d: must be in [1,%d]", blocks, nodes)
		}
		if !(pin >= 0 && pin <= 1) || !(pout >= 0 && pout <= 1) {
			return fmt.Errorf("-pin %g, -pout %g: probabilities must be in [0,1]", pin, pout)
		}
	}
	return nil
}

func writeLabels(path string, y []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw := sticky.NewWriter(f, 1<<16)
	for _, v := range y {
		sw.WriteString(strconv.FormatInt(int64(v), 10))
		sw.WriteByte('\n')
	}
	if err := sw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
