package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "server", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Layer: "dyn", StartNS: 10, EndNS: 50},
		{ID: 3, Parent: 1, Layer: "dyn", StartNS: 40, EndNS: 70}, // overlaps span 2
		{ID: 4, Parent: 2, Layer: "exec", StartNS: 20, EndNS: 30},
		{ID: 5, Parent: 1, Layer: "wire", StartNS: 90, EndNS: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 60 - 10, 2: 30, 3: 30, 4: 10, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byLayer := layerSelfSeconds(spans)
	if byLayer["dyn"] != 60e-9 {
		t.Errorf("dyn self time %v, want 60ns", byLayer["dyn"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", "y", 0, 0)
	if sp.id() != 0 {
		t.Fatal("an untraced span has an id")
	}
	sp.end()
	ran := false
	if d := tr.timed("x", "y", 0, func() { ran = true }); !ran || d < 0 {
		t.Fatal("timed did not run its function")
	}
	if tr.finished() != nil {
		t.Fatal("a nil tracer returned spans")
	}
}

func TestSpansAreWrittenAsJSON(t *testing.T) {
	tr := newTracer()
	parent := tr.begin("bench", "timed", 0, 0)
	tr.begin("gee", "EmbedCSR", parent.id(), 7).end()
	parent.end()
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := writeSpans(path, currentEnvironment(3), "embed_skewed", tr.finished()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Environment environment
		Workload    string
		Spans       []span
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workload != "embed_skewed" || doc.Environment.Seed != 3 || doc.Environment.NProc < 1 || len(doc.Spans) != 2 {
		t.Fatalf("round trip lost data: %+v", doc)
	}
	child := doc.Spans[1]
	if child.Parent != doc.Spans[0].ID || child.Request != 7 || child.Layer != "gee" || child.EndNS < child.StartNS {
		t.Fatalf("child span %+v", child)
	}
}
