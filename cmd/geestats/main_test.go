package main

import (
	"path/filepath"
	"testing"

	"repro"
)

func TestRunStats(t *testing.T) {
	dir := t.TempDir()
	el := repro.NewErdosRenyi(2, 200, 2000, 1)
	path := filepath.Join(dir, "g.txt")
	if err := repro.SaveEdgeList(path, el); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "edgelist", 4); err != nil {
		t.Fatal(err)
	}
}

func TestRunStatsFormats(t *testing.T) {
	dir := t.TempDir()
	el := repro.NewErdosRenyi(2, 50, 300, 2)
	g := repro.BuildGraph(2, el)
	adj := filepath.Join(dir, "g.adj")
	bin := filepath.Join(dir, "g.bin")
	if err := repro.SaveAdjacency(adj, g); err != nil {
		t.Fatal(err)
	}
	if err := repro.SaveBinary(bin, g); err != nil {
		t.Fatal(err)
	}
	if err := run(adj, "adj", 2); err != nil {
		t.Fatal(err)
	}
	if err := run(bin, "bin", 2); err != nil {
		t.Fatal(err)
	}
	if err := run(adj, "bogus", 2); err == nil {
		t.Fatal("bogus format accepted")
	}
	if err := run("/nonexistent", "edgelist", 2); err == nil {
		t.Fatal("missing file accepted")
	}
}
