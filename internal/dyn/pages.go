package dyn

import "repro/internal/mat"

// A published embedding is cut into pages of PageRows rows, and the page
// table into chunks of chunkPages page pointers. Both are the units two
// epochs share: a publish copies the chunk pointers (8 bytes per
// chunkRows rows), then the chunk and the page of every dirty row or
// label. The sizes are chosen for the bytes a small write allocates,
// because on the serving path those bytes cost more than the copying
// does: every byte brings the next GC cycle closer, and a cycle holds up
// the request it lands on for milliseconds. At n=100k, K=10 a 128-edge
// fold allocates ~155 KB here against ~220 KB with 8-row pages, ~370 KB
// with 16-row pages, ~460 KB with 16-row pages under one flat table, and
// 8 MB as a whole matrix; the publish itself takes ~0.25 ms either way.
const (
	pageShift  = 2
	PageRows   = 1 << pageShift
	chunkShift = 3
	chunkPages = 1 << chunkShift
	chunkRows  = PageRows * chunkPages
)

// page is PageRows rows of a version: their raw sums, their labels, and
// the epoch that last wrote each row and each label. The stamps make a
// version its own delta: the rows changed since epoch e are the rows
// stamped after e. A stamp is held as an offset from the store's base
// epoch (0: at or before it), which keeps a page at 72 bytes besides
// its rows — the bytes a publish allocates per page it copies.
type page struct {
	rows  []float64 // row-major raw sums (fewer rows on the last page)
	y     [PageRows]int32
	rowAt [PageRows]uint32
	yAt   [PageRows]uint32
}

// chunk is one copy-on-write segment of the page table. top is the
// newest stamp in its pages, and age[j] how many epochs page j's newest
// stamp is older than top (at least: ages saturate), so a delta skips a
// chunk, or a page, that nothing in its span touched without opening it.
// Both change only when the chunk is copied.
type chunk struct {
	pages [chunkPages]*page
	top   uint32
	age   [chunkPages]uint8
}

func numPages(r int) int  { return (r + PageRows - 1) >> pageShift }
func numChunks(r int) int { return (r + chunkRows - 1) >> (pageShift + chunkShift) }

// Pages is an immutable R×C embedding with its labels. It stores the raw
// per-class sums U and the epoch's column scale inv (inv[c] = 1/n_c),
// and normalises a row only as it is read: Row, Rows and Dense all write
// U(v,c)·inv[c], the one product every reader sees. Keeping the sums raw
// is what lets epochs share pages even across a class-count change — a
// page holds the same bits under any coefficients — so the cost of a
// version is proportional to the rows and labels a write changed, not to
// R×C.
//
// The rows live in exactly one of two places. A rebuild of every row
// leaves them back to back in flat, beside flat label and stamp arrays
// (the embedder's own arrays, lent to the version), with no page table at
// all — nothing is shared with the previous epoch, so there is nothing to
// index. A patched version, and a shard's (whose pages outside its window
// are one shared zero page), keeps them in pages behind chunks.
type Pages struct {
	R, C       int
	inv        []float64
	flat       []float64
	y          []int32
	rowAt, yAt []uint64 // a flat store's stamps, as epochs
	// base is the epoch the page stamps are offsets from; no delta
	// reaches back before it.
	base uint64
	// off is the position of row 0 inside chunks[0]; non-zero only for a
	// Window that starts inside a chunk.
	off    int
	chunks []*chunk
}

// page returns the page holding row v.
//
//gee:noalloc
func (p *Pages) page(v int) (pg *page, i int) {
	g := v + p.off
	return p.chunks[g>>(pageShift+chunkShift)].pages[(g>>pageShift)&(chunkPages-1)], g & (PageRows - 1)
}

// span returns the raw sums of rows [v, hi) as far as they run back to
// back in memory: up to hi in a flat store, else up to the end of v's
// page.
//
//gee:noalloc
func (p *Pages) span(v, hi int) []float64 {
	if p.chunks == nil {
		return p.flat[v*p.C : hi*p.C]
	}
	pg, i := p.page(v)
	return pg.rows[i*p.C : (i+min(PageRows-i, hi-v))*p.C]
}

// scaleRows writes src, rows of raw sums back to back, into dst as
// normalised rows.
//
//gee:noalloc
func scaleRows(dst, src, inv []float64) {
	k := len(inv)
	for o := 0; o < len(src); o += k {
		d, s := dst[o:o+k], src[o:o+k]
		for c, x := range s {
			d[c] = x * inv[c]
		}
	}
}

// Row writes row v into dst and returns dst[:C].
//
//gee:noalloc
func (p *Pages) Row(v int, dst []float64) []float64 {
	dst = dst[:p.C]
	scaleRows(dst, p.span(v, v+1), p.inv)
	return dst
}

// Rows writes rows [lo, hi) back to back into dst[:(hi-lo)×C]: the
// block reader for callers that stream many rows.
//
//gee:noalloc
func (p *Pages) Rows(lo, hi int, dst []float64) {
	for v := lo; v < hi; {
		src := p.span(v, hi)
		o := (v - lo) * p.C
		scaleRows(dst[o:o+len(src)], src, p.inv)
		v += len(src) / p.C
	}
}

// ySpan returns the classes of vertices [v, hi) as far as they run back
// to back, like span.
func (p *Pages) ySpan(v, hi int) []int32 {
	if p.chunks == nil {
		return p.y[v:hi]
	}
	pg, i := p.page(v)
	return pg.y[i:min(PageRows, i+hi-v)]
}

// Label returns vertex v's class.
func (p *Pages) Label(v int) int32 { return p.ySpan(v, v+1)[0] }

// Labels writes the classes of vertices [lo, hi) into dst[:hi-lo]: the
// block reader for callers that stream many labels.
func (p *Pages) Labels(lo, hi int, dst []int32) {
	for v := lo; v < hi; {
		v += copy(dst[v-lo:], p.ySpan(v, hi))
	}
}

// Window returns rows [lo, hi) as a store of their own (row i of the
// window is row lo+i of p), sharing p's memory, scale and labels but not
// its stamps, which only a delta of the whole store reads. lo and hi need
// not sit on page or chunk boundaries.
func (p *Pages) Window(lo, hi int) *Pages {
	if p.chunks == nil {
		return &Pages{R: hi - lo, C: p.C, inv: p.inv, flat: p.flat[lo*p.C : hi*p.C], y: p.y[lo:hi]}
	}
	return &Pages{
		R: hi - lo, C: p.C, inv: p.inv,
		off:    (p.off + lo) & (chunkRows - 1),
		chunks: p.chunks[(p.off+lo)>>(pageShift+chunkShift) : numChunks(p.off+hi)],
	}
}

// SameRow reports whether row v of p and row w of q are one piece of
// memory: the copy-on-write sharing a publish leaves between two
// versions (the rows of a page are shared or copied together), or the
// one zero page a shard points every page outside its window at.
func (p *Pages) SameRow(v int, q *Pages, w int) bool {
	return &p.span(v, v+1)[0] == &q.span(w, w+1)[0]
}

// Dense returns the rows as one freshly gathered, normalised matrix:
// O(R×C), so callers that need it repeatedly go through
// Version.Snapshot, which gathers once per version.
func (p *Pages) Dense() *mat.Dense {
	z := mat.NewDense(p.R, p.C)
	p.Rows(0, p.R, z.Data)
	return z
}
