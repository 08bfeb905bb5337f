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
