package main

import (
	"encoding/binary"
	"math"

	"repro/internal/dyn"
	"repro/internal/graph"
)

// baseGraph is the graph every serving workload preloads ("base100k" at
// full size): block-structured edges, so the embedding clusters, and
// the first fifth of the vertices labelled round-robin.
type baseGraph struct {
	n, k  int
	edges []graph.Edge
	y     []int32
}

// baseBlockFrac is the share of edges that stay inside a planted block,
// baseLabelFrac the share of vertices (the lowest ids) that are labelled.
const (
	baseBlockFrac = 0.9
	baseLabelFrac = 0.2
)

func makeBase(sz sizing, seed uint64) baseGraph {
	return baseGraph{
		n: sz.baseN, k: sz.baseK,
		edges: blockEdges(newRNG(seed, 1<<42), sz.baseN, sz.baseK, sz.baseEdges, baseBlockFrac),
		y:     roundRobinLabels(sz.baseN, sz.baseK, baseLabelFrac),
	}
}

// opKind is the kind of one scripted write request.
type opKind uint8

const (
	opInsert opKind = iota
	opDelete
	opLabels
)

// writeOp is one scripted write request. A delete names, by index into
// the client's script, the insert whose batch it removes: it is only
// valid once that insert was acknowledged.
type writeOp struct {
	kind   opKind
	edges  []graph.Edge
	labels []dyn.LabelUpdate
	undo   int  // opDelete: index of the insert being deleted
	sync   bool // ingest_follow: call Replica.Sync after this request
}

// ops is the number of operations the request carries.
func (w *writeOp) ops() int { return len(w.edges) + len(w.labels) }

// writeScripts generates serve_write's scripts, one per client: batches
// of block-structured inserts, and every fifth request deletes the
// oldest batch the same client inserted and has not deleted yet.
func writeScripts(sz sizing, seed uint64) [][]writeOp {
	scripts := make([][]writeOp, loadWorkers)
	for c := range scripts {
		r := newRNG(seed, 1<<43+uint64(c))
		var inserted []int
		ops := make([]writeOp, 0, sz.writeRequests)
		for i := 0; i < sz.writeRequests; i++ {
			if i%5 == 4 && len(inserted) > 0 {
				ops = append(ops, writeOp{kind: opDelete, edges: ops[inserted[0]].edges, undo: inserted[0]})
				inserted = inserted[1:]
				continue
			}
			inserted = append(inserted, len(ops))
			ops = append(ops, writeOp{kind: opInsert, edges: blockEdges(r, sz.baseN, sz.baseK, sz.writeBatch, baseBlockFrac)})
		}
		scripts[c] = ops
	}
	return scripts
}

// followScript generates ingest_follow's single script. Each cycle
// inserts one large batch; every second cycle also deletes the oldest
// live batch; every fourth also moves labelled vertices into one class,
// which changes the class counts and so forces a full epoch; and every
// cycle ends with a replica sync.
func followScript(sz sizing, seed uint64) []writeOp {
	r := newRNG(seed, 1<<44)
	base := baseGraph{n: sz.baseN, k: sz.baseK}
	var inserted []int
	var ops []writeOp
	for cycle := 0; cycle < sz.followCycles; cycle++ {
		inserted = append(inserted, len(ops))
		ops = append(ops, writeOp{kind: opInsert, edges: blockEdges(r, sz.baseN, sz.baseK, sz.followBatch, baseBlockFrac)})
		if cycle%2 == 1 {
			ops = append(ops, writeOp{kind: opDelete, edges: ops[inserted[0]].edges, undo: inserted[0]})
			inserted = inserted[1:]
		}
		if cycle%4 == 3 {
			ops = append(ops, writeOp{kind: opLabels, labels: labelMoves(r, base, sz.followMoves, int32(cycle/4%sz.baseK))})
		}
		ops[len(ops)-1].sync = true
	}
	return ops
}

// labelMoves moves count randomly chosen labelled vertices of the base
// graph into one class, which changes the class counts.
func labelMoves(r *rng, base baseGraph, count int, class int32) []dyn.LabelUpdate {
	labelled := int(math.Round(baseLabelFrac * float64(base.n)))
	moves := make([]dyn.LabelUpdate, count)
	for i := range moves {
		moves[i] = dyn.LabelUpdate{V: uint32(r.intn(labelled)), Class: class}
	}
	return moves
}

// readScripts generates serve_read's query vertices, one list per
// client.
func readScripts(sz sizing, seed uint64) [][]uint32 {
	scripts := make([][]uint32, loadWorkers)
	for c := range scripts {
		r := newRNG(seed, 1<<45+uint64(c))
		qs := make([]uint32, sz.readQueries)
		for i := range qs {
			qs[i] = uint32(r.intn(sz.baseN))
		}
		scripts[c] = qs
	}
	return scripts
}

// encodeScript serialises a write script, so tests can compare scripts
// byte for byte.
func encodeScript(ops []writeOp) []byte {
	var b []byte
	for i := range ops {
		op := &ops[i]
		b = append(b, byte(op.kind))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.undo))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(op.edges)))
		for _, e := range op.edges {
			b = binary.LittleEndian.AppendUint32(b, e.U)
			b = binary.LittleEndian.AppendUint32(b, e.V)
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(e.W))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(len(op.labels)))
		for _, l := range op.labels {
			b = binary.LittleEndian.AppendUint32(b, l.V)
			b = binary.LittleEndian.AppendUint32(b, uint32(l.Class))
		}
		if op.sync {
			b = append(b, 1)
		}
	}
	return b
}
