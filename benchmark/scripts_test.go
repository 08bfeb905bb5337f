package main

import (
	"bytes"
	"testing"
)

func TestScriptsAreAFunctionOfTheSeed(t *testing.T) {
	sz := toySizing()
	flat := func(seed uint64) []byte {
		var b []byte
		for _, s := range writeScripts(sz, seed) {
			b = append(b, encodeScript(s)...)
		}
		b = append(b, encodeScript(followScript(sz, seed))...)
		for _, qs := range readScripts(sz, seed) {
			for _, q := range qs {
				b = append(b, byte(q), byte(q>>8), byte(q>>16), byte(q>>24))
			}
		}
		return b
	}
	a, again, other := flat(7), flat(7), flat(8)
	if !bytes.Equal(a, again) {
		t.Fatal("the same seed gave different scripts")
	}
	if bytes.Equal(a, other) {
		t.Fatal("different seeds gave the same scripts")
	}
	if !bytes.Equal(encodeEdges(makeBase(sz, 7)), encodeEdges(makeBase(sz, 7))) ||
		bytes.Equal(encodeEdges(makeBase(sz, 7)), encodeEdges(makeBase(sz, 8))) {
		t.Fatal("the base graph is not a function of the seed alone")
	}
	if !bytes.Equal(encodeScript([]writeOp{{edges: rmatEdges(8, 500, 7)}}), encodeScript([]writeOp{{edges: rmatEdges(8, 500, 7)}})) {
		t.Fatal("the RMAT generator is not deterministic")
	}
}

func encodeEdges(b baseGraph) []byte { return encodeScript([]writeOp{{edges: b.edges}}) }

func TestWriteScriptShape(t *testing.T) {
	sz := toySizing()
	scripts := writeScripts(sz, 1)
	if len(scripts) != loadWorkers {
		t.Fatalf("%d scripts for %d load goroutines", len(scripts), loadWorkers)
	}
	for _, s := range scripts {
		if len(s) != sz.writeRequests {
			t.Fatalf("script of %d requests, want %d", len(s), sz.writeRequests)
		}
		deleted := map[int]bool{}
		for i, op := range s {
			switch {
			case i%5 == 4:
				if op.kind != opDelete || op.undo >= i || s[op.undo].kind != opInsert || deleted[op.undo] {
					t.Fatalf("request %d: %+v is not a delete of an earlier, still live insert", i, op.kind)
				}
				deleted[op.undo] = true
			case op.kind != opInsert || len(op.edges) != sz.writeBatch:
				t.Fatalf("request %d is not a %d-edge insert", i, sz.writeBatch)
			}
		}
	}
}

func TestFollowScriptShape(t *testing.T) {
	sz := toySizing()
	syncs, labels, deletes := 0, 0, 0
	for _, op := range followScript(sz, 1) {
		if op.sync {
			syncs++
		}
		switch op.kind {
		case opLabels:
			labels++
			for _, l := range op.labels {
				if l.Class != op.labels[0].Class || int(l.Class) >= sz.baseK {
					t.Fatalf("label moves %v do not target one valid class", op.labels)
				}
			}
		case opDelete:
			deletes++
		}
	}
	if syncs != sz.followCycles || labels != sz.followCycles/4 || deletes != sz.followCycles/2 {
		t.Fatalf("%d syncs, %d relabels, %d deletes in %d cycles", syncs, labels, deletes, sz.followCycles)
	}
}
