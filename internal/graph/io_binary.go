package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Compact binary CSR format, little-endian:
//
//	magic   [8]byte  "GEECSR01"
//	n       uint64
//	m       uint64
//	flags   uint64   bit0 = weighted
//	offsets (n+1) x int64
//	targets m x uint32
//	weights m x float32 (when weighted)
//
// This is the fast path for benchmark graphs: loading is a few large
// sequential reads rather than a text parse.

var binMagic = [8]byte{'G', 'E', 'E', 'C', 'S', 'R', '0', '1'}

const flagWeighted = 1 << 0

// WriteBinary streams g in the compact binary format.
func WriteBinary(w io.Writer, g *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binMagic[:]); err != nil {
		return err
	}
	var flags uint64
	if g.Weights != nil {
		flags |= flagWeighted
	}
	hdr := []uint64{uint64(g.N), uint64(g.NumEdges()), flags}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Offsets); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Targets); err != nil {
		return err
	}
	if g.Weights != nil {
		if err := binary.Write(bw, binary.LittleEndian, g.Weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary parses the compact binary format.
func ReadBinary(r io.Reader) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: binary magic: %w", err)
	}
	if magic != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic[:])
	}
	hdr := make([]uint64, 3)
	if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
		return nil, err
	}
	n, m, flags := hdr[0], hdr[1], hdr[2]
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("graph: vertex count %d exceeds the uint32 id space", n)
	}
	g := &CSR{N: int(n)}
	var err error
	if g.Offsets, err = readChunked[int64](br, n+1); err != nil {
		return nil, err
	}
	if g.Targets, err = readChunked[NodeID](br, m); err != nil {
		return nil, err
	}
	if flags&flagWeighted != 0 {
		if g.Weights, err = readChunked[float32](br, m); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// readChunk caps how many values a reader allocates ahead of the data.
const readChunk = 1 << 16

// readChunked reads count little-endian values, growing the slice as
// they arrive: a header that claims more than the stream holds fails at
// EOF having allocated about what was present, not what was claimed.
func readChunked[T int64 | NodeID | float32](r io.Reader, count uint64) ([]T, error) {
	out := make([]T, 0, min(count, readChunk))
	for left := count; left > 0; {
		k := int(min(left, readChunk))
		lo := len(out)
		out = slices.Grow(out, k)[:lo+k]
		if err := binary.Read(r, binary.LittleEndian, out[lo:]); err != nil {
			return nil, err
		}
		left -= uint64(k)
	}
	return out, nil
}

// WriteBinaryFile writes g to path in the compact binary format.
func WriteBinaryFile(path string, g *CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBinaryFile loads a compact binary CSR file.
func ReadBinaryFile(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
