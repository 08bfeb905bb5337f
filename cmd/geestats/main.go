// Command geestats prints structural statistics of a graph file —
// the quick sanity check before benchmarking or embedding it.
//
// Usage:
//
//	geestats -graph g.txt [-format edgelist|adj|bin]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/graph"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "input graph file (required)")
		format    = flag.String("format", "edgelist", "graph format: edgelist, adj, bin")
		workers   = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
	)
	flag.Parse()
	if *graphPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*graphPath, *format, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "geestats:", err)
		os.Exit(1)
	}
}

func run(path, format string, workers int) error {
	var g *repro.Graph
	var err error
	switch format {
	case "edgelist":
		el, err := repro.LoadEdgeList(path)
		if err != nil {
			return err
		}
		g = repro.BuildGraph(workers, el)
	case "adj":
		if g, err = repro.LoadAdjacency(path); err != nil {
			return err
		}
	case "bin":
		if g, err = repro.LoadBinary(path); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	s := graph.ComputeStats(workers, g)
	fmt.Printf("vertices        %d\n", s.N)
	fmt.Printf("arcs            %d\n", s.M)
	fmt.Printf("avg out-degree  %.3f\n", s.AvgDegree)
	fmt.Printf("degree min/p50/p99/max  %d / %d / %d / %d\n",
		s.MinDegree, s.DegreeP50, s.DegreeP99, s.MaxDegree)
	fmt.Printf("isolated        %d\n", s.Isolated)
	fmt.Printf("self loops      %d\n", s.SelfLoops)
	fmt.Printf("total weight    %.1f\n", s.WeightTotal)
	return nil
}
