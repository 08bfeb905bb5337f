// Package rows is the row store both ends of a sync keep: an immutable
// R×C matrix of rows, each row with a label and the epochs that
// last wrote the row and the label, cut into pages that successive
// versions share copy-on-write. The primary (internal/dyn) publishes
// every epoch as one; a follower (internal/server/client) holds each
// section it mirrors as one and applies a delta to it the same way a
// publish applies a write: it copies the pages the delta touched and
// shares the rest, so an update costs the rows it changed, not R×C.
//
// A page is one pointer-free allocation: a header of PageRows labels and
// row and label stamps, followed by the page's rows. The collector never
// scans it, and a publish makes one allocation per page it copies. Pages
// hang off chunks of chunkPages pointers, which carry the newest stamp of
// their pages, so a walk for "what changed since epoch e" (Since) skips
// every chunk and page nothing in the span touched without opening it.
package rows

import (
	"math"
	"unsafe"

	"repro/internal/labels"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// A store is cut into pages of PageRows rows, and the page table into
// chunks of chunkPages page pointers. Both are the units two versions
// share: a new version copies the chunk pointers (8 bytes per chunkRows
// rows), then the chunk and the page of every row or label it changes.
// The sizes are chosen for the bytes a small write allocates, because on
// the serving path those bytes cost more than the copying does: every
// byte brings the next GC cycle closer, and a cycle holds up the request
// it lands on for milliseconds. At n=100k, K=10 a 128-edge fold
// allocates ~155 KB here against ~220 KB with 8-row pages, ~370 KB with
// 16-row pages, ~460 KB with 16-row pages under one flat table, and 8 MB
// as a whole matrix.
const (
	pageShift  = 2
	PageRows   = 1 << pageShift
	chunkShift = 3
	chunkPages = 1 << chunkShift
	chunkRows  = PageRows * chunkPages
)

// page is the header of one page: its rows' labels, and the epochs that
// last wrote each row and each label, held as offsets from the store's
// base epoch (0: at or before it). The page's PageRows rows of C values
// follow the header in the same allocation, which holds no pointer.
type page struct {
	y     [PageRows]int32
	rowAt [PageRows]uint32
	yAt   [PageRows]uint32
}

// Value is what a store holds: float64, or float32 where a row arrives
// at that precision and its width is the cost (a follower of the binary
// wire).
type Value interface{ float32 | float64 }

// words is the size of a page of c columns, in values: the header, then
// the rows.
func words[E Value](c int) int {
	return int(unsafe.Sizeof(page{})/unsafe.Sizeof(E(0))) + PageRows*c
}

// newSlab allocates m pages of c columns as one pointer-free block.
func newSlab[E Value](m, c int) []E { return make([]E, m*words[E](c)) }

// pageIn returns page i of a slab of c-column pages, as a fresh page:
// zero rows, unknown labels, stamps 0.
func pageIn[E Value](slab []E, i, c int) *page {
	pg := (*page)(unsafe.Pointer(&slab[i*words[E](c)]))
	pg.y = [PageRows]int32{labels.Unknown, labels.Unknown, labels.Unknown, labels.Unknown}
	return pg
}

// pageRows returns pg's rows: PageRows×c values, row-major.
//
//gee:noalloc
func pageRows[E Value](pg *page, c int) []E {
	return unsafe.Slice((*E)(unsafe.Add(unsafe.Pointer(pg), unsafe.Sizeof(page{}))), PageRows*c)
}

// newest returns the page's newest stamp.
func (pg *page) newest() uint32 {
	var t uint32
	for i := range PageRows {
		t = max(t, pg.rowAt[i], pg.yAt[i])
	}
	return t
}

// chunk is one copy-on-write segment of the page table. top is the
// newest stamp in its pages, and age[j] how many epochs page j's newest
// stamp is older than top (at least: ages saturate), so a walk skips a
// chunk, or a page, that nothing in its span touched without opening it.
// Both change only when the chunk is copied.
type chunk struct {
	pages [chunkPages]*page
	top   uint32
	age   [chunkPages]uint8
}

func numPages(r int) int  { return (r + PageRows - 1) >> pageShift }
func numChunks(r int) int { return (r + chunkRows - 1) >> (pageShift + chunkShift) }

// Pages is an immutable R×C store of rows with their labels and stamps.
// It may carry a column scale inv, applied as rows are read: Row, Rows
// and Dense all write stored(v,c)·inv[c], the one product every reader
// sees. The primary stores raw per-class sums and the epoch's 1/n_k, which
// is what lets versions share pages across a class-count change — a page
// holds the same bits under any coefficients. A store without a scale
// serves its rows as stored.
//
// The rows live in exactly one of two places. A flat store keeps them
// back to back in one array, beside flat label and stamp arrays — the
// caller's own arrays, lent to the store (Flat) — with no page table. A
// paged store keeps them in pages behind chunks. Edit turns either into
// the paged store that follows it.
type Pages[E Value] struct {
	R, C       int
	inv        []float64
	flat       []E
	y          []int32
	rowAt, yAt []uint64 // a flat store's stamps, as epochs
	// base is the epoch the page stamps are offsets from; Since reaches
	// no further back.
	base uint64
	// off is the position of row 0 inside chunks[0]; non-zero only for a
	// Window that starts inside a chunk.
	off    int
	chunks []*chunk
}

// Flat returns the store of the given arrays themselves, not copies: c
// values per row, back to back, each row's label and the epochs that
// last wrote each row and label. The caller must not write them while
// the store is in use. inv, when not nil, scales the columns as rows are
// read; base is the oldest epoch Since answers from.
func Flat[E Value](c int, rows []E, y []int32, rowAt, yAt []uint64, inv []float64, base uint64) *Pages[E] {
	return &Pages[E]{R: len(y), C: c, inv: inv, flat: rows, y: y, rowAt: rowAt, yAt: yAt, base: base}
}

// Fill returns an R×C paged store whose pages holding rows [lo, hi) are
// fresh — one allocation per 4096 rows or so, each page handed to fill
// to write — and whose every other page is one shared zero page: zero rows,
// unknown labels, never written. Fresh pages start the same way. inv and
// base are as for Flat. Up to workers goroutines call fill, each for
// distinct pages; a store of a few thousand rows is filled on the
// caller's.
func Fill[E Value](r, c, lo, hi int, inv []float64, base uint64, workers int, fill func(p int, pg Page[E])) *Pages[E] {
	z := &Pages[E]{R: r, C: c, inv: inv, base: base, chunks: make([]*chunk, numChunks(r))}
	zero := &chunk{}
	zp := pageIn(newSlab[E](1, c), 0, c)
	for j := range zero.pages {
		zero.pages[j] = zp
	}
	for ci := range z.chunks {
		z.chunks[ci] = zero
	}
	if lo >= hi {
		return z
	}
	first, last := lo>>pageShift, numPages(hi)
	c0, c1 := first>>chunkShift, numChunks(last<<pageShift)
	own := make([]chunk, c1-c0)
	// One allocation per worker's share, so the runtime's clearing of
	// fresh memory runs in parallel too.
	parallel.ForChunk(workers, c1-c0, 4096/chunkRows, func(from, to int) {
		p0 := max(first, (c0+from)<<chunkShift)
		slab := newSlab[E](min(last, (c0+to)<<chunkShift)-p0, c)
		for ci := c0 + from; ci < c0+to; ci++ {
			ch, newest := &own[ci-c0], [chunkPages]uint32{}
			*ch, z.chunks[ci] = *zero, ch
			for p := max(first, ci<<chunkShift); p < min(last, (ci+1)<<chunkShift); p++ {
				pg := pageIn(slab, p-p0, c)
				fill(p, Page[E]{pg: pg, c: c, base: base})
				ch.pages[p&(chunkPages-1)], newest[p&(chunkPages-1)] = pg, pg.newest()
			}
			ch.top = max(newest[0], newest[1], newest[2], newest[3], newest[4], newest[5], newest[6], newest[7])
			for j, t := range newest {
				ch.age[j] = uint8(min(ch.top-t, math.MaxUint8))
			}
		}
	})
	return z
}

// Page is one writable page of a store being built: PageRows rows (the
// last page of a store may hang past R; those rows are never read), their
// labels and their stamps. Write it only before the store is handed out.
type Page[E Value] struct {
	pg   *page
	c    int
	base uint64
}

// Rows returns the page's rows, PageRows×C values, row-major.
func (w Page[E]) Rows() []E { return pageRows[E](w.pg, w.c) }

// SetLabel sets row i's label.
func (w Page[E]) SetLabel(i int, y int32) { w.pg.y[i] = y }

// StampRow records the epoch that last wrote row i.
func (w Page[E]) StampRow(i int, e uint64) { w.pg.rowAt[i] = w.offset(e) }

// StampLabel records the epoch that last wrote row i's label.
func (w Page[E]) StampLabel(i int, e uint64) { w.pg.yAt[i] = w.offset(e) }

// offset is epoch e as a page stamp: 0 for any epoch at or before the
// base.
func (w Page[E]) offset(e uint64) uint32 { return uint32(max(e, w.base) - w.base) }

// A Builder makes the store that follows another, copy-on-write: every
// page it is not asked for, and every chunk without such a page, is
// shared with the store it started from.
type Builder[E Value] struct {
	z, prev *Pages[E]
	epoch   uint64
}

// Edit begins the store that follows p at epoch, with the column scale
// inv. A flat p is first copied into pages, once: from then on its
// successors share them. p must be a whole store, not a Window.
func (p *Pages[E]) Edit(epoch uint64, inv []float64) *Builder[E] {
	if f := p; f.chunks == nil {
		p = Fill(f.R, f.C, 0, f.R, f.inv, f.base, 1, func(pg int, w Page[E]) {
			r0, r1 := pg<<pageShift, min((pg+1)<<pageShift, f.R)
			copy(w.Rows(), f.flat[r0*f.C:r1*f.C])
			for v := r0; v < r1; v++ {
				w.SetLabel(v-r0, f.y[v])
				w.StampRow(v-r0, f.rowAt[v])
				w.StampLabel(v-r0, f.yAt[v])
			}
		})
	}
	z := &Pages[E]{R: p.R, C: p.C, inv: inv, base: p.base, chunks: append([]*chunk(nil), p.chunks...)}
	return &Builder[E]{z: z, prev: p, epoch: epoch}
}

// Touch readies page p to be replaced: it copies p's chunk unless this
// build already did, and marks the page as holding a stamp of the build's
// epoch (the chunk's other pages age by as much as its newest stamp
// moved). Call it, serially, for every page before Page or Fresh asks for
// them concurrently.
func (b *Builder[E]) Touch(p int) {
	ci, j := p>>chunkShift, p&(chunkPages-1)
	c := b.z.chunks[ci]
	if c == b.prev.chunks[ci] {
		cp := *c
		top := max(uint32(max(b.epoch, b.z.base)-b.z.base), cp.top)
		for i, a := range cp.age {
			cp.age[i] = uint8(min(uint64(a)+uint64(top-cp.top), math.MaxUint8))
		}
		cp.top, c, b.z.chunks[ci] = top, &cp, &cp
	}
	if c.age[j] != 0 { // a touched page is not written again
		c.age[j] = 0
	}
}

// Page returns page p as a fresh copy of the previous store's page —
// rows, labels and stamps — made the first time it is asked for, and the
// same page after that. It touches the page (Touch), so calls for
// distinct pages may run concurrently only once each was touched.
func (b *Builder[E]) Page(p int) Page[E] {
	pg, old := b.slot(p)
	if *pg == old {
		fresh := pageIn(newSlab[E](1, b.z.C), 0, b.z.C)
		*fresh = *old
		copy(pageRows[E](fresh, b.z.C), pageRows[E](old, b.z.C))
		*pg = fresh
	}
	return Page[E]{pg: *pg, c: b.z.C, base: b.z.base}
}

// Fresh returns page p as a fresh page — zero rows, unknown labels, stamps
// at the base — for a caller that writes all of it: it skips Page's copy.
// The same concurrency rules apply.
func (b *Builder[E]) Fresh(p int) Page[E] {
	pg, _ := b.slot(p)
	*pg = pageIn(newSlab[E](1, b.z.C), 0, b.z.C)
	return Page[E]{pg: *pg, c: b.z.C, base: b.z.base}
}

// slot touches page p and returns its entry in the new table and the
// previous store's page.
func (b *Builder[E]) slot(p int) (entry **page, old *page) {
	b.Touch(p)
	ci, j := p>>chunkShift, p&(chunkPages-1)
	return &b.z.chunks[ci].pages[j], b.prev.chunks[ci].pages[j]
}

// Done returns the store built. The builder must not be used after.
func (b *Builder[E]) Done() *Pages[E] { return b.z }

// page returns the page holding row v.
//
//gee:noalloc
func (p *Pages[E]) page(v int) (pg *page, i int) {
	g := v + p.off
	return p.chunks[g>>(pageShift+chunkShift)].pages[(g>>pageShift)&(chunkPages-1)], g & (PageRows - 1)
}

// span returns the stored rows [v, hi) as far as they run back to back
// in memory: up to hi in a flat store, else up to the end of v's page.
//
//gee:noalloc
func (p *Pages[E]) span(v, hi int) []E {
	if p.chunks == nil {
		return p.flat[v*p.C : hi*p.C]
	}
	pg, i := p.page(v)
	return pageRows[E](pg, p.C)[i*p.C : (i+min(PageRows-i, hi-v))*p.C]
}

// scaleRows writes src, stored rows back to back, into dst as served
// rows: scaled by inv, or widened as they are when there is no scale.
//
//gee:noalloc
func scaleRows[E Value](dst []float64, src []E, inv []float64) {
	if inv == nil {
		for i, x := range src {
			dst[i] = float64(x)
		}
		return
	}
	k := len(inv)
	for o := 0; o < len(src); o += k {
		d, s := dst[o:o+k], src[o:o+k]
		for c, x := range s {
			d[c] = float64(x) * inv[c]
		}
	}
}

// Row writes row v into dst and returns dst[:C].
//
//gee:noalloc
func (p *Pages[E]) Row(v int, dst []float64) []float64 {
	dst = dst[:p.C]
	scaleRows(dst, p.span(v, v+1), p.inv)
	return dst
}

// Rows writes rows [lo, hi) back to back into dst[:(hi-lo)×C]: the
// block reader for callers that stream many rows.
//
//gee:noalloc
func (p *Pages[E]) Rows(lo, hi int, dst []float64) {
	for v := lo; v < hi; {
		src := p.span(v, hi)
		o := (v - lo) * p.C
		scaleRows(dst[o:o+len(src)], src, p.inv)
		v += len(src) / p.C
	}
}

// RawRow writes row v as stored, without the column scale, into dst and
// returns dst[:C].
func (p *Pages[E]) RawRow(v int, dst []float64) []float64 {
	dst = dst[:p.C]
	scaleRows(dst, p.span(v, v+1), nil)
	return dst
}

// ySpan returns the labels of rows [v, hi) as far as they run back to
// back, like span.
func (p *Pages[E]) ySpan(v, hi int) []int32 {
	if p.chunks == nil {
		return p.y[v:hi]
	}
	pg, i := p.page(v)
	return pg.y[i:min(PageRows, i+hi-v)]
}

// Label returns row v's label.
func (p *Pages[E]) Label(v int) int32 { return p.ySpan(v, v+1)[0] }

// Labels writes the labels of rows [lo, hi) into dst[:hi-lo]: the block
// reader for callers that stream many labels.
func (p *Pages[E]) Labels(lo, hi int, dst []int32) {
	for v := lo; v < hi; {
		v += copy(dst[v-lo:], p.ySpan(v, hi))
	}
}

// Stamps returns the epochs that last wrote row v and its label (the
// base for any write at or before it).
func (p *Pages[E]) Stamps(v int) (row, label uint64) {
	if p.chunks == nil {
		return p.rowAt[v], p.yAt[v]
	}
	pg, i := p.page(v)
	return p.base + uint64(pg.rowAt[i]), p.base + uint64(pg.yAt[i])
}

// Scale returns the column scale rows are read under (nil: none). It is
// the store's own: read it, do not write it.
func (p *Pages[E]) Scale() []float64 { return p.inv }

// Paged reports whether the rows live in pages rather than one flat
// array.
func (p *Pages[E]) Paged() bool { return p.chunks != nil }

// Since calls visit, in ascending row order, for every row whose row or
// label was written after epoch from, saying which, and reports whether
// the stamps reach back that far (from is not before the base); when
// they do not, it visits nothing. A paged store skips every chunk and page
// whose newest stamp is no later than from, so the walk costs O(chunks +
// rows of changed pages); a flat one sweeps its stamp arrays.
func (p *Pages[E]) Since(from uint64, visit func(v int, row, label bool)) bool {
	if from < p.base {
		return false
	}
	if p.chunks == nil {
		for v := range p.R {
			if row, label := p.rowAt[v] > from, p.yAt[v] > from; row || label {
				visit(v, row, label)
			}
		}
		return true
	}
	for ci, c := range p.chunks {
		top := p.base + uint64(c.top)
		if top <= from {
			continue
		}
		for j, pg := range &c.pages {
			if top-uint64(c.age[j]) <= from {
				continue
			}
			v0 := (ci<<chunkShift+j)<<pageShift - p.off
			for i := range PageRows {
				if v := v0 + i; v >= 0 && v < p.R {
					row, label := p.base+uint64(pg.rowAt[i]) > from, p.base+uint64(pg.yAt[i]) > from
					if row || label {
						visit(v, row, label)
					}
				}
			}
		}
	}
	return true
}

// Window returns rows [lo, hi) as a store of their own (row i of the
// window is row lo+i of p), sharing p's memory, scale, labels and stamps.
// lo and hi need not sit on page or chunk boundaries. A window is read
// only: Edit takes a whole store.
func (p *Pages[E]) Window(lo, hi int) *Pages[E] {
	if p.chunks == nil {
		return &Pages[E]{R: hi - lo, C: p.C, inv: p.inv, base: p.base, flat: p.flat[lo*p.C : hi*p.C],
			y: p.y[lo:hi], rowAt: p.rowAt[lo:hi], yAt: p.yAt[lo:hi]}
	}
	return &Pages[E]{
		R: hi - lo, C: p.C, inv: p.inv, base: p.base,
		off:    (p.off + lo) & (chunkRows - 1),
		chunks: p.chunks[(p.off+lo)>>(pageShift+chunkShift) : numChunks(p.off+hi)],
	}
}

// SameRow reports whether row v of p and row w of q are one piece of
// memory: the copy-on-write sharing an edit leaves between two stores
// (the rows of a page are shared or copied together), or the one zero
// page every page outside a Fill's fresh range points at.
func (p *Pages[E]) SameRow(v int, q *Pages[E], w int) bool {
	return &p.span(v, v+1)[0] == &q.span(w, w+1)[0]
}

// Dense returns the rows as one freshly gathered, scaled matrix: O(R×C),
// so callers that need it repeatedly should keep it.
func (p *Pages[E]) Dense() *mat.Dense {
	z := mat.NewDense(p.R, p.C)
	p.Rows(0, p.R, z.Data)
	return z
}
