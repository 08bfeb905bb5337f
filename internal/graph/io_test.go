package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func sampleCSR(t *testing.T, weighted bool) *CSR {
	t.Helper()
	el := randomEdgeList(37, 500, 21, weighted)
	g := BuildCSR(4, el)
	sortArcs(g)
	return g
}

func csrEqual(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.N != b.N || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", a.N, a.NumEdges(), b.N, b.NumEdges())
	}
	for u := 0; u <= a.N; u++ {
		if a.Offsets[u] != b.Offsets[u] {
			t.Fatalf("offset mismatch at %d", u)
		}
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			t.Fatalf("target mismatch at %d", i)
		}
	}
	if (a.Weights == nil) != (b.Weights == nil) {
		t.Fatal("weighted-ness mismatch")
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatalf("weight mismatch at %d", i)
		}
	}
}

func TestAdjacencyRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := sampleCSR(t, weighted)
		var buf bytes.Buffer
		if err := WriteAdjacency(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadAdjacency(&buf)
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, g, got)
	}
}

func TestAdjacencyHeaderDetection(t *testing.T) {
	g := sampleCSR(t, true)
	var buf bytes.Buffer
	WriteAdjacency(&buf, g)
	if !strings.HasPrefix(buf.String(), "WeightedAdjacencyGraph\n") {
		t.Fatal("weighted graph must use WeightedAdjacencyGraph header")
	}
}

func TestReadAdjacencyErrors(t *testing.T) {
	cases := []string{
		"",
		"NotAGraph\n1\n0\n0\n",
		"AdjacencyGraph\n2\n1\n0\n0\n",      // missing target
		"AdjacencyGraph\n1\n1\n0\n7\n",      // target out of range
		"AdjacencyGraph\nx\n0\n",            // bad n
		"AdjacencyGraph\n1\n-2\n0\n",        // bad m
		"AdjacencyGraph\n2\n2\n0\nbad\n0\n", // bad offset
	}
	for i, c := range cases {
		if _, err := ReadAdjacency(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d: malformed input accepted", i)
		}
	}
}

func TestAdjacencyKnownFormat(t *testing.T) {
	// Hand-written 3-vertex file in PBBS format.
	in := "AdjacencyGraph\n3\n3\n0\n1\n2\n1\n2\n0\n"
	g, err := ReadAdjacency(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.N, g.NumEdges())
	}
	if g.Neighbors(0)[0] != 1 || g.Neighbors(1)[0] != 2 || g.Neighbors(2)[0] != 0 {
		t.Fatal("wrong adjacency")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		el := randomEdgeList(23, 200, 31, weighted)
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, el); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(&buf, el.N)
		if err != nil {
			t.Fatal(err)
		}
		if got.N != el.N || len(got.Edges) != len(el.Edges) {
			t.Fatalf("shape: n=%d m=%d", got.N, len(got.Edges))
		}
		for i := range el.Edges {
			if got.Edges[i] != el.Edges[i] {
				t.Fatalf("edge %d: %v vs %v", i, got.Edges[i], el.Edges[i])
			}
		}
	}
}

func TestReadEdgeListCommentsAndSizing(t *testing.T) {
	in := "# comment\n% also comment\n\n0 5\n3 1 2.5\n"
	el, err := ReadEdgeList(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if el.N != 6 {
		t.Fatalf("N=%d want 6 (max id 5)", el.N)
	}
	if len(el.Edges) != 2 {
		t.Fatalf("edges=%v", el.Edges)
	}
	if el.Edges[0].W != 1 || el.Edges[1].W != 2.5 {
		t.Fatalf("weights=%v,%v want 1,2.5", el.Edges[0].W, el.Edges[1].W)
	}
}

// TestEdgeListWeightColumn: the weight column is written exactly when
// some W is not 1, and every W reads back.
func TestEdgeListWeightColumn(t *testing.T) {
	el := randomEdgeList(9, 40, 5, false)
	for _, w := range []float32{1, 2.5} {
		el.Edges[17].W = w
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, el); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
		wantCols := 2
		if w != 1 {
			wantCols = 3
		}
		for i, line := range lines {
			if cols := len(strings.Fields(line)); cols != wantCols {
				t.Fatalf("W[17]=%v: line %d %q has %d columns, want %d", w, i, line, cols, wantCols)
			}
		}
		got, err := ReadEdgeList(&buf, el.N)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := edgeListKey(el), edgeListKey(got); a != b {
			t.Fatalf("W[17]=%v: round trip changed the list:\n%s\n%s", w, a, b)
		}
	}
}

// TestReadersRefuseNonFiniteWeights: a NaN or infinite weight never
// reaches Z from a file; the error names the line or the arc.
func TestReadersRefuseNonFiniteWeights(t *testing.T) {
	for _, w := range []string{"NaN", "+Inf", "-Inf", "inf"} {
		_, err := ReadEdgeList(strings.NewReader("0 1\n0 1 "+w+"\n"), 0)
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("edge list weight %s: %v", w, err)
		}
		_, err = ReadAdjacency(strings.NewReader("WeightedAdjacencyGraph\n2\n2\n0\n1\n1\n0\n1\n" + w + "\n"))
		if err == nil || !strings.Contains(err.Error(), "arc 1") {
			t.Errorf("adjacency weight %s: %v", w, err)
		}
	}
	g := &CSR{N: 2, Offsets: []int64{0, 1, 1}, Targets: []NodeID{1}, Weights: []float32{float32(math.Inf(1))}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(&buf); err == nil || !strings.Contains(err.Error(), "arc 0") {
		t.Errorf("binary weight +Inf: %v", err)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for i, c := range []string{"0\n", "a b\n", "0 b\n", "0 1 w\n"} {
		if _, err := ReadEdgeList(strings.NewReader(c), 0); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := sampleCSR(t, weighted)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		csrEqual(t, g, got)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("notmagicatall___"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	g := sampleCSR(t, false)
	var buf bytes.Buffer
	WriteBinary(&buf, g)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestFileHelpers(t *testing.T) {
	dir := t.TempDir()
	g := sampleCSR(t, true)

	adjPath := filepath.Join(dir, "g.adj")
	if err := WriteAdjacencyFile(adjPath, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAdjacencyFile(adjPath)
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, g, got)

	binPath := filepath.Join(dir, "g.bin")
	if err := WriteBinaryFile(binPath, g); err != nil {
		t.Fatal(err)
	}
	got2, err := ReadBinaryFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	csrEqual(t, g, got2)

	el := g.ToEdgeList()
	elPath := filepath.Join(dir, "g.txt")
	if err := WriteEdgeListFile(elPath, el); err != nil {
		t.Fatal(err)
	}
	gotEl, err := ReadEdgeListFile(elPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotEl.Edges) != len(el.Edges) {
		t.Fatalf("edge count %d want %d", len(gotEl.Edges), len(el.Edges))
	}
}

func TestFileHelpersMissingFile(t *testing.T) {
	if _, err := ReadAdjacencyFile("/nonexistent/x.adj"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := ReadBinaryFile("/nonexistent/x.bin"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := ReadEdgeListFile("/nonexistent/x.txt"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// binaryHeader is a GEECSR01 header claiming n vertices and m arcs,
// followed by no data.
func binaryHeader(n, m uint64) []byte {
	b := append([]byte(nil), binMagic[:]...)
	for _, x := range []uint64{n, m, 0} {
		b = binary.LittleEndian.AppendUint64(b, x)
	}
	return b
}

func TestReadersRejectHostileHeaders(t *testing.T) {
	cases := []struct {
		name string
		read func() error
	}{
		{"binary n=1<<39", func() error {
			_, err := ReadBinary(bytes.NewReader(binaryHeader(1<<39, 0)))
			return err
		}},
		{"binary m=1<<39", func() error {
			_, err := ReadBinary(bytes.NewReader(binaryHeader(0, 1<<39)))
			return err
		}},
		{"adjacency n=MaxInt64", func() error {
			_, err := ReadAdjacency(strings.NewReader("AdjacencyGraph\n9223372036854775807\n0"))
			return err
		}},
		{"adjacency n=1e12", func() error {
			_, err := ReadAdjacency(strings.NewReader("AdjacencyGraph\n1000000000000\n0"))
			return err
		}},
	}
	for _, c := range cases {
		if c.read() == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// FuzzReadGraph feeds the three graph readers; the first byte picks the
// format. An input a reader accepts must validate and survive a
// Write→Read round trip unchanged.
func FuzzReadGraph(f *testing.F) {
	for _, weighted := range []bool{false, true} {
		el := randomEdgeList(6, 12, 3, weighted)
		g := BuildCSR(1, el)
		var e, a, b bytes.Buffer
		if err := WriteEdgeList(&e, el); err != nil {
			f.Fatal(err)
		}
		if err := WriteAdjacency(&a, g); err != nil {
			f.Fatal(err)
		}
		if err := WriteBinary(&b, g); err != nil {
			f.Fatal(err)
		}
		for sel, buf := range [][]byte{e.Bytes(), a.Bytes(), b.Bytes()} {
			f.Add(append([]byte{byte(sel)}, buf...))
		}
	}
	// The largest uint32 id would need N = 1<<32 vertices.
	f.Add([]byte("\x000 4294967295\n"))
	// Non-finite weights, which every reader refuses.
	for _, w := range []string{"NaN", "+Inf", "-Inf"} {
		f.Add([]byte("\x000 1 " + w + "\n"))
		f.Add([]byte("\x01WeightedAdjacencyGraph\n2\n1\n0\n1\n1\n" + w + "\n"))
		wf, _ := strconv.ParseFloat(w, 32)
		var b bytes.Buffer
		if err := WriteBinary(&b, &CSR{N: 2, Offsets: []int64{0, 1, 1}, Targets: []NodeID{1}, Weights: []float32{float32(wf)}}); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{2}, b.Bytes()...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		in := data[1:]
		switch data[0] % 3 {
		case 0:
			el, err := ReadEdgeList(bytes.NewReader(in), 0)
			if err != nil {
				return
			}
			if err := el.Validate(); err != nil {
				t.Fatalf("accepted edge list fails Validate: %v", err)
			}
			var buf bytes.Buffer
			if err := WriteEdgeList(&buf, el); err != nil {
				t.Fatal(err)
			}
			back, err := ReadEdgeList(&buf, 0)
			if err != nil {
				t.Fatalf("re-read: %v", err)
			}
			if a, b := edgeListKey(el), edgeListKey(back); a != b {
				t.Fatalf("round trip changed the edge list:\n%s\n%s", a, b)
			}
		case 1, 2:
			read, write := ReadAdjacency, WriteAdjacency
			if data[0]%3 == 2 {
				read, write = ReadBinary, WriteBinary
			}
			g, err := read(bytes.NewReader(in))
			if err != nil {
				return
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("accepted graph fails Validate: %v", err)
			}
			var buf bytes.Buffer
			if err := write(&buf, g); err != nil {
				t.Fatal(err)
			}
			back, err := read(&buf)
			if err != nil {
				t.Fatalf("re-read: %v", err)
			}
			if a, b := csrKey(g), csrKey(back); a != b {
				t.Fatalf("round trip changed the graph:\n%s\n%s", a, b)
			}
		}
	})
}

// edgeListKey and csrKey render a graph exactly, weights by their bits
// so that NaN compares equal to itself.
func edgeListKey(el *EdgeList) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", el.N)
	for _, e := range el.Edges {
		fmt.Fprintf(&b, " %d-%d:%x", e.U, e.V, math.Float32bits(e.W))
	}
	return b.String()
}

func csrKey(g *CSR) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d offsets=%v targets=%v weighted=%v", g.N, g.Offsets, g.Targets, g.Weights != nil)
	for _, w := range g.Weights {
		fmt.Fprintf(&b, " %x", math.Float32bits(w))
	}
	return b.String()
}
