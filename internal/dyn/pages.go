package dyn

import "repro/internal/mat"

// A published embedding is cut into pages of PageRows rows, and the page
// table into chunks of chunkPages page headers. Both are the units two
// epochs share: a publish copies the chunk pointers (8 bytes per
// chunkRows rows), then the chunk and the page of every dirty row. The
// sizes are chosen for the bytes a small write allocates, because on
// the serving path those bytes cost more than the copying does: every
// byte brings the next GC cycle closer, and a cycle holds up the request
// it lands on for milliseconds. At n=100k, K=10 a 128-edge fold
// allocates ~155 KB here against ~220 KB with 8-row pages, ~370 KB with
// 16-row pages, ~460 KB with 16-row pages under one flat table, and
// 8 MB as a whole matrix; the publish itself takes ~0.25 ms either way.
const (
	pageShift  = 2
	PageRows   = 1 << pageShift
	chunkShift = 3
	chunkPages = 1 << chunkShift
	chunkRows  = PageRows * chunkPages
)

// chunk is one copy-on-write segment of the page table.
type chunk [chunkPages][]float64

func numPages(r int) int  { return (r + PageRows - 1) >> pageShift }
func numChunks(r int) int { return (r + chunkRows - 1) >> (pageShift + chunkShift) }

// Pages is an immutable R×C row store. Epochs share every page no write
// touched, so the cost of a version is proportional to what changed, not
// to R×C. It reads like a mat.Dense (R, C, Row), which is all the
// serving tier needs; code that needs the rows back to back (the
// neighbor scans) asks for Dense.
//
// The rows live in exactly one of two places. A rebuild of every row
// leaves them back to back in flat, with no page table at all — nothing
// is shared with the previous epoch, so there is nothing to index. A
// patched version, and a shard's (whose rows outside its window are
// shared zero pages), keeps them in PageRows-high pages behind chunks.
type Pages struct {
	R, C int
	flat []float64
	// off is the position of row 0 inside chunks[0]; non-zero only for a
	// Window that starts inside a chunk.
	off    int
	chunks []*chunk
}

// Row returns row v. Read-only by contract, like every published row.
//
//gee:noalloc
func (p *Pages) Row(v int) []float64 {
	if p.chunks == nil {
		return p.flat[v*p.C : (v+1)*p.C]
	}
	v += p.off
	pg := p.chunks[v>>(pageShift+chunkShift)][(v>>pageShift)&(chunkPages-1)]
	o := (v & (PageRows - 1)) * p.C
	return pg[o : o+p.C]
}

// Window returns rows [lo, hi) as a store of their own (row i of the
// window is row lo+i of p), sharing p's memory. lo and hi need not sit
// on page or chunk boundaries.
func (p *Pages) Window(lo, hi int) *Pages {
	if p.chunks == nil {
		return &Pages{R: hi - lo, C: p.C, flat: p.flat[lo*p.C : hi*p.C]}
	}
	return &Pages{
		R: hi - lo, C: p.C,
		off:    (p.off + lo) & (chunkRows - 1),
		chunks: p.chunks[(p.off+lo)>>(pageShift+chunkShift) : numChunks(p.off+hi)],
	}
}

// cutPages points the table entries of pages [first, last) at their
// rows in backing, whose first row is row base of the store.
func (p *Pages) cutPages(backing []float64, base, first, last int) {
	for pg := first; pg < last; pg++ {
		r0 := pg << pageShift
		p.chunks[pg>>chunkShift][pg&(chunkPages-1)] = backing[(r0-base)*p.C : (min(r0+PageRows, p.R)-base)*p.C]
	}
}

// Dense returns the rows as one contiguous matrix: a view when the
// pages already sit back to back, otherwise a gathered copy (O(R×C) —
// callers that need it repeatedly go through Version.Snapshot, which
// gathers once per version).
func (p *Pages) Dense() *mat.Dense {
	if p.chunks == nil {
		return &mat.Dense{R: p.R, C: p.C, Data: p.flat}
	}
	z := mat.NewDense(p.R, p.C)
	for v := 0; v < p.R; {
		// The rest of v's page, or of the store when that ends first.
		rows := min(PageRows-(v+p.off)&(PageRows-1), p.R-v)
		copy(z.Data[v*p.C:(v+rows)*p.C], p.Row(v)[:rows*p.C])
		v += rows
	}
	return z
}
