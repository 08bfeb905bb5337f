package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

func TestRunModels(t *testing.T) {
	dir := t.TempDir()
	for _, model := range []string{"rmat", "er"} {
		out := filepath.Join(dir, model+".txt")
		if err := run(model, 10, 500, 2000, 0, 0, 0, 1, 2, out, "edgelist", ""); err != nil {
			t.Fatalf("%s: %v", model, err)
		}
		el, err := repro.LoadEdgeList(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(el.Edges) != 2000 {
			t.Fatalf("%s: %d edges", model, len(el.Edges))
		}
	}
}

func TestRunSBMWithLabels(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sbm.txt")
	labels := filepath.Join(dir, "y.txt")
	if err := run("sbm", 0, 1000, 0, 4, 0.05, 0.001, 1, 2, out, "edgelist", labels); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(labels)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 1000 {
		t.Fatalf("%d label lines", lines)
	}
}

func TestRunFormats(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"adj", "bin"} {
		out := filepath.Join(dir, "g."+format)
		if err := run("er", 0, 100, 500, 0, 0, 0, 1, 2, out, format, ""); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		var g *repro.Graph
		var err error
		if format == "adj" {
			g, err = repro.LoadAdjacency(out)
		} else {
			g, err = repro.LoadBinary(out)
		}
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() != 500 {
			t.Fatalf("%s: %d edges", format, g.NumEdges())
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "x.txt")
	labelsOut := filepath.Join(dir, "y.txt")
	type args struct {
		model         string
		scale, nodes  int
		edges         int64
		blocks        int
		pin, pout     float64
		format, label string
	}
	for _, tc := range []struct {
		name string
		a    args
	}{
		{"bogus model", args{model: "bogus", nodes: 10, edges: 10, format: "edgelist"}},
		{"bogus format", args{model: "er", nodes: 10, edges: 10, format: "bogus"}},
		{"labels-out without sbm", args{model: "er", nodes: 10, edges: 10, format: "edgelist", label: labelsOut}},
		{"negative scale", args{model: "rmat", scale: -1, edges: 4, format: "edgelist"}},
		{"scale past uint32 ids", args{model: "rmat", scale: 33, edges: 4, format: "edgelist"}},
		{"scale naming the reserved id", args{model: "rmat", scale: 32, edges: 4, format: "edgelist"}},
		{"er without vertices", args{model: "er", nodes: 0, edges: 4, format: "edgelist"}},
		{"er past uint32 ids", args{model: "er", nodes: 1 << 32, edges: 4, format: "edgelist"}},
		{"negative edges", args{model: "er", nodes: 10, edges: -3, format: "edgelist"}},
		{"sbm without blocks", args{model: "sbm", nodes: 10, blocks: 0, pin: 0.5, pout: 0.1, format: "edgelist", label: labelsOut}},
		{"sbm more blocks than vertices", args{model: "sbm", nodes: 3, blocks: 4, pin: 0.5, pout: 0.1, format: "edgelist"}},
		{"sbm probabilities outside [0,1]", args{model: "sbm", nodes: 10, blocks: 2, pin: -1, pout: 5, format: "edgelist"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			if err := run(a.model, a.scale, a.nodes, a.edges, a.blocks, a.pin, a.pout,
				1, 2, out, a.format, a.label); err == nil {
				t.Fatalf("run accepted %+v", a)
			}
		})
	}
}
