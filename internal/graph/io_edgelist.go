package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/sticky"
)

// SNAP-style edge list text format: one "u v" or "u v w" per line,
// '#'-prefixed comment lines ignored. Vertex count is max id + 1 unless a
// larger N is forced by the caller.

// WriteEdgeList writes el as text, one edge per line. The weight column
// is written only when some W is not 1, so an unweighted list reads
// back as two columns. The sticky.Writer retains the first error for
// Flush, so per-field writes stay unchecked by design.
func WriteEdgeList(w io.Writer, el *EdgeList) error {
	weighted := !unitWeights(1, el.Edges)
	sw := sticky.NewWriter(w, 1<<20)
	fmt.Fprintf(sw, "# nodes %d edges %d\n", el.N, len(el.Edges))
	for _, e := range el.Edges {
		sw.WriteString(strconv.FormatUint(uint64(e.U), 10))
		sw.WriteByte('\t')
		sw.WriteString(strconv.FormatUint(uint64(e.V), 10))
		if weighted {
			sw.WriteByte('\t')
			sw.WriteString(strconv.FormatFloat(float64(e.W), 'g', -1, 32))
		}
		sw.WriteByte('\n')
	}
	return sw.Flush()
}

// ReadEdgeList parses a SNAP-style edge list. minN forces a minimum vertex
// count (pass 0 to size from the data).
func ReadEdgeList(r io.Reader, minN int) (*EdgeList, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	el := &EdgeList{N: minN}
	maxID := -1
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "%") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need at least 2 fields", line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		if u == math.MaxUint32 || v == math.MaxUint32 {
			return nil, fmt.Errorf("graph: line %d: vertex id %d leaves no uint32 vertex count", line, max(u, v))
		}
		w := float32(1)
		if len(fields) >= 3 {
			wf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
			w = float32(wf)
			if !finite(w) {
				return nil, fmt.Errorf("graph: line %d: weight %s is not finite", line, fields[2])
			}
		}
		el.Edges = append(el.Edges, Edge{U: NodeID(u), V: NodeID(v), W: w})
		if int(u) > maxID {
			maxID = int(u)
		}
		if int(v) > maxID {
			maxID = int(v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxID+1 > el.N {
		el.N = maxID + 1
	}
	return el, nil
}

// WriteEdgeListFile writes el to path.
func WriteEdgeListFile(path string, el *EdgeList) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, el); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadEdgeListFile loads an edge list file.
func ReadEdgeListFile(path string) (*EdgeList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdgeList(f, 0)
}
