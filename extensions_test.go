package repro

import (
	"testing"
)

func TestFacadeDynamic(t *testing.T) {
	el := NewErdosRenyi(4, 300, 6000, 31)
	y := SampleLabels(el.N, 5, 0.5, 32)
	d, err := NewDynamicEmbedder(el.N, y, DynamicOptions{K: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	half := len(el.Edges) / 2
	if err := d.Apply(DynamicBatch{Insert: el.Edges[:half]}); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(DynamicBatch{
		Insert: el.Edges[half:],
		Delete: el.Edges[:10],
		Labels: []LabelUpdate{{V: 0, Class: 1}, {V: 1, Class: Unknown}},
	}); err != nil {
		t.Fatal(err)
	}
	yFinal := append([]int32(nil), y...)
	yFinal[0], yFinal[1] = 1, Unknown
	batch, err := Embed(Reference, &EdgeList{N: el.N, Edges: el.Edges[10:]}, yFinal, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if snap.Epoch != 2 {
		t.Fatalf("epoch %d after two batches", snap.Epoch)
	}
	if !batch.Z.EqualTol(snap.Z, 1e-9) {
		t.Fatalf("dynamic differs from batch by %v", batch.Z.MaxAbsDiff(snap.Z))
	}
	if row := d.Query(0); len(row) != 5 {
		t.Fatalf("query row %v", row)
	}
	if st := d.Stats(); st.LiveEdges != int64(len(el.Edges)-10) {
		t.Fatalf("live edges %d", st.LiveEdges)
	}
}

func TestFacadeDirected(t *testing.T) {
	el := NewRMAT(4, 9, 4000, 29)
	y := SampleLabels(el.N, 4, 0.3, 30)
	g := BuildGraph(4, el)
	dir, err := EmbedDirected(LigraParallel, g, y, Options{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	std, err := EmbedGraph(Reference, g, y, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !std.Z.EqualTol(FoldDirected(dir.Z), 1e-9) {
		t.Fatal("folded directed differs from standard")
	}
}

func TestFacadeDiagonalAugment(t *testing.T) {
	el := NewErdosRenyi(2, 100, 50, 31) // sparse: some isolated vertices
	aug := DiagonalAugment(el)
	if len(aug.Edges) != len(el.Edges)+100 {
		t.Fatal("augment edge count")
	}
}

func TestFacadeKNNClassify(t *testing.T) {
	el, truth := NewSBM(4, 1000, 2, 0.1, 0.002, 33)
	y := make([]int32, el.N)
	mask := SampleLabels(el.N, 2, 0.2, 34)
	for i := range y {
		y[i] = Unknown
		if mask[i] >= 0 {
			y[i] = truth[i]
		}
	}
	res, err := Embed(LigraParallel, el, y, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	zn := res.Z.Clone()
	zn.RowL2Normalize()
	pred := KNNClassify(4, zn, y, 9)
	correct, total := 0, 0
	for v := range pred {
		if pred[v] >= 0 {
			total++
			if pred[v] == truth[v] {
				correct++
			}
		}
	}
	if total == 0 || float64(correct)/float64(total) < 0.85 {
		t.Fatalf("kNN accuracy %d/%d", correct, total)
	}
}
