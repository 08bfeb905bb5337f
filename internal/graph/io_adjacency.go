package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"repro/internal/sticky"
)

// The Ligra AdjacencyGraph text format (Problem Based Benchmark Suite):
//
//	AdjacencyGraph
//	<n>
//	<m>
//	<offset 0> ... <offset n-1>
//	<target 0> ... <target m-1>
//
// WeightedAdjacencyGraph appends m weights after the targets.

const (
	adjHeader         = "AdjacencyGraph"
	weightedAdjHeader = "WeightedAdjacencyGraph"
)

// WriteAdjacency writes g in (Weighted)AdjacencyGraph format. Writes go
// through a sticky.Writer: the first error is retained and returned by
// Flush, so the per-line writes stay unchecked by design.
func WriteAdjacency(w io.Writer, g *CSR) error {
	sw := sticky.NewWriter(w, 1<<20)
	header := adjHeader
	if g.Weights != nil {
		header = weightedAdjHeader
	}
	fmt.Fprintf(sw, "%s\n%d\n%d\n", header, g.N, g.NumEdges())
	for u := 0; u < g.N; u++ {
		sw.WriteString(strconv.FormatInt(g.Offsets[u], 10))
		sw.WriteByte('\n')
	}
	for _, v := range g.Targets {
		sw.WriteString(strconv.FormatUint(uint64(v), 10))
		sw.WriteByte('\n')
	}
	if g.Weights != nil {
		for _, wt := range g.Weights {
			sw.WriteString(strconv.FormatFloat(float64(wt), 'g', -1, 32))
			sw.WriteByte('\n')
		}
	}
	return sw.Flush()
}

// ReadAdjacency parses a (Weighted)AdjacencyGraph stream into a CSR.
func ReadAdjacency(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(bufio.ScanWords)
	next := func() (string, error) {
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				return "", err
			}
			return "", io.ErrUnexpectedEOF
		}
		return sc.Text(), nil
	}
	header, err := next()
	if err != nil {
		return nil, fmt.Errorf("graph: reading header: %w", err)
	}
	weighted := false
	switch header {
	case adjHeader:
	case weightedAdjHeader:
		weighted = true
	default:
		return nil, fmt.Errorf("graph: unknown header %q", header)
	}
	nStr, err := next()
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 0 || n > math.MaxUint32 {
		return nil, fmt.Errorf("graph: bad vertex count %q", nStr)
	}
	mStr, err := next()
	if err != nil {
		return nil, err
	}
	m, err := strconv.ParseInt(mStr, 10, 64)
	if err != nil || m < 0 {
		return nil, fmt.Errorf("graph: bad edge count %q", mStr)
	}
	// The counts are claims: grow the arrays as values arrive, so a short
	// stream fails at EOF instead of allocating what its header says.
	g := &CSR{N: n, Offsets: make([]int64, 0, min(n, readChunk)+1), Targets: make([]NodeID, 0, min(m, readChunk))}
	for u := 0; u < n; u++ {
		tok, err := next()
		if err != nil {
			return nil, fmt.Errorf("graph: offset %d: %w", u, err)
		}
		off, err := strconv.ParseInt(tok, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: offset %d: %w", u, err)
		}
		g.Offsets = append(g.Offsets, off)
	}
	g.Offsets = append(g.Offsets, m)
	for i := int64(0); i < m; i++ {
		tok, err := next()
		if err != nil {
			return nil, fmt.Errorf("graph: target %d: %w", i, err)
		}
		t, err := strconv.ParseUint(tok, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: target %d: %w", i, err)
		}
		g.Targets = append(g.Targets, NodeID(t))
	}
	if weighted {
		g.Weights = make([]float32, 0, min(m, readChunk))
		for i := int64(0); i < m; i++ {
			tok, err := next()
			if err != nil {
				return nil, fmt.Errorf("graph: weight %d: %w", i, err)
			}
			wt, err := strconv.ParseFloat(tok, 32)
			if err != nil {
				return nil, fmt.Errorf("graph: weight %d: %w", i, err)
			}
			g.Weights = append(g.Weights, float32(wt))
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// WriteAdjacencyFile writes g to path in (Weighted)AdjacencyGraph format.
func WriteAdjacencyFile(path string, g *CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteAdjacency(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadAdjacencyFile loads a (Weighted)AdjacencyGraph file.
func ReadAdjacencyFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadAdjacency(f)
}
