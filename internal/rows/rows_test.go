package rows

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/parallel"
)

// testPages builds an r×c store whose cell (v, j) holds v*1000+j as its
// stored value, scaled by testInv, and whose row v has label
// testLabel(v): one array each (the shape a flat store lends) when flat,
// otherwise pages filled in one allocation.
func testPages[E Value](r, c int, flat bool) *Pages[E] {
	if flat {
		rows, y := make([]E, r*c), make([]int32, r)
		for i := range rows {
			rows[i] = E(i/c*1000 + i%c)
		}
		for v := range y {
			y[v] = testLabel(v)
		}
		return Flat(c, rows, y, make([]uint64, r), make([]uint64, r), testInv(c), 0)
	}
	return Fill(r, c, 0, r, testInv(c), 0, 2, func(p int, pg Page[E]) {
		r0 := p * PageRows
		for i := range min(PageRows, r-r0) {
			for j := range c {
				pg.Rows()[i*c+j] = E((r0+i)*1000 + j)
			}
			pg.SetLabel(i, testLabel(r0+i))
		}
	})
}

// testLabel is row v's label in the testPages pattern.
func testLabel(v int) int32 { return int32(v%7) - 1 }

// testInv is a column scale with no exact binary form, so a reader that
// skipped or reordered the multiply would show in the bits.
func testInv(c int) []float64 {
	inv := make([]float64, c)
	for j := range inv {
		inv[j] = 1 / float64(j+3)
	}
	return inv
}

// testCell is cell (v, j) of the testPages pattern as every reader must
// serve it.
func testCell(v, j int) float64 { return float64(v*1000+j) * (1 / float64(j+3)) }

// checkRows asserts that p holds rows [lo, lo+p.R) of the testPages
// pattern, through Row, through Rows and through Dense, and their labels
// through Label and Labels.
func checkRows[E Value](t *testing.T, p *Pages[E], lo int) {
	t.Helper()
	z := p.Dense()
	if z.R != p.R || z.C != p.C || len(z.Data) != p.R*p.C {
		t.Fatalf("Dense is %dx%d over %d floats, want %dx%d", z.R, z.C, len(z.Data), p.R, p.C)
	}
	block := make([]float64, p.R*p.C+1)
	block[p.R*p.C] = -1
	p.Rows(0, p.R, block)
	if block[p.R*p.C] != -1 {
		t.Fatalf("Rows wrote past row %d", p.R)
	}
	ys := make([]int32, p.R+1)
	ys[p.R] = -9
	p.Labels(0, p.R, ys)
	if ys[p.R] != -9 {
		t.Fatalf("Labels wrote past vertex %d", p.R)
	}
	buf := make([]float64, p.C+2)
	for v := 0; v < p.R; v++ {
		if want := testLabel(lo + v); p.Label(v) != want || ys[v] != want {
			t.Fatalf("vertex %d: Label %d, Labels %d, want %d", v, p.Label(v), ys[v], want)
		}
		row := p.Row(v, buf)
		if len(row) != p.C || &row[0] != &buf[0] {
			t.Fatalf("row %d: %d columns, want %d in the caller's buffer", v, len(row), p.C)
		}
		for j, x := range row {
			if want := testCell(lo+v, j); x != want || z.At(v, j) != want || block[v*p.C+j] != want {
				t.Fatalf("cell (%d,%d): Row %v, Rows %v, Dense %v, want %v", v, j, x, block[v*p.C+j], z.At(v, j), want)
			}
		}
	}
}

// TestPagesRowWindowDense checks every reader on every window of flat
// and paged stores of both value types.
func TestPagesRowWindowDense(t *testing.T) {
	rowWindowDense[float64](t)
	rowWindowDense[float32](t)
}

func rowWindowDense[E Value](t *testing.T) {
	const c = 3
	for _, r := range []int{0, 1, PageRows - 1, PageRows, PageRows + 1, chunkRows - 1, chunkRows, chunkRows + 1, 2*chunkRows + PageRows + 3} {
		for _, flat := range []bool{false, true} {
			p := testPages[E](r, c, flat)
			checkRows(t, p, 0)
			if z := p.Dense(); r > 0 && unsafe.Pointer(&z.Data[0]) == unsafe.Pointer(&p.span(0, 1)[0]) {
				t.Fatalf("r=%d: Dense is a view of the stored rows, want a scaled copy", r)
			}
			// Every window, aligned or not, including empty ones and
			// windows of windows; and every block of the store itself.
			for lo := 0; lo <= r; lo++ {
				for hi := lo; hi <= r; hi++ {
					w := p.Window(lo, hi)
					checkRows(t, w, lo)
					if hi-lo >= 2 {
						checkRows(t, w.Window(1, hi-lo-1), lo+1)
					}
					if hi > lo && !w.SameRow(0, p, lo) {
						t.Fatalf("r=%d: window [%d,%d) does not share its pages", r, lo, hi)
					}
					block := make([]float64, (hi-lo)*c)
					p.Rows(lo, hi, block)
					for i, x := range block {
						if want := testCell(lo+i/c, i%c); x != want {
							t.Fatalf("r=%d: Rows(%d,%d) cell %d = %v, want %v", r, lo, hi, i, x, want)
						}
					}
				}
			}
		}
	}
}

// model is a plain-array store: rows, labels and stamps, edited in place,
// that every store built by edits must read equal to.
type model struct {
	r, c       int
	rows       []float64
	y          []int32
	rowAt, yAt []uint64
}

func (m *model) check(t *testing.T, z *Pages[float64], what string) {
	t.Helper()
	buf := make([]float64, m.c)
	for v := range m.r {
		if got := z.Row(v, buf); !slices.Equal(got, m.rows[v*m.c:(v+1)*m.c]) {
			t.Fatalf("%s: row %d = %v, want %v", what, v, got, m.rows[v*m.c:(v+1)*m.c])
		}
		if row, label := z.Stamps(v); z.Label(v) != m.y[v] || row != m.rowAt[v] || label != m.yAt[v] {
			t.Fatalf("%s: row %d label %d stamps %d/%d, want %d %d/%d", what, v, z.Label(v), row, label, m.y[v], m.rowAt[v], m.yAt[v])
		}
	}
}

// since is the brute-force Since over the model.
func (m *model) since(from uint64) (rows, labels []int) {
	for v := range m.r {
		if m.rowAt[v] > from {
			rows = append(rows, v)
		}
		if m.yAt[v] > from {
			labels = append(labels, v)
		}
	}
	return rows, labels
}

// TestEditsMatchModel drives random edits — Page (copy-on-write), Fresh
// (rewrite whole pages), rows, labels and stamps — through a chain of
// stores that starts flat, and checks at every epoch that the store
// reads as a plain-array model does, that every store kept from earlier
// epochs still reads as it did, that pages nothing touched are shared
// with the previous store, and that Since — from every earlier epoch, on
// the store and on windows of it — lists exactly the rows and labels the
// model stamps after it, including across spans longer than a chunk's
// saturating page ages.
func TestEditsMatchModel(t *testing.T) {
	const r, c, epochs = 301, 3, 400
	rng := rand.New(rand.NewPCG(7, 11))
	m := &model{r: r, c: c, rows: make([]float64, r*c), y: make([]int32, r), rowAt: make([]uint64, r), yAt: make([]uint64, r)}
	for i := range m.rows {
		m.rows[i] = float64(i)
	}
	z := Flat(c, slices.Clone(m.rows), slices.Clone(m.y), slices.Clone(m.rowAt), slices.Clone(m.yAt), nil, 0)
	type kept struct {
		z *Pages[float64]
		m model
	}
	var held []kept
	for epoch := uint64(1); epoch <= epochs; epoch++ {
		prev := z
		b := z.Edit(epoch, nil)
		touched := map[int]bool{}
		// Most epochs write a few rows on one hot page; some write all over.
		writes := 1 + rng.IntN(3)
		if epoch%50 == 0 {
			writes = 40
		}
		for range writes {
			v := rng.IntN(r)
			if rng.IntN(4) > 0 {
				v = 17 + rng.IntN(2)
			}
			p, i := v/PageRows, v%PageRows
			touched[p] = true
			if rng.IntN(5) == 0 {
				// Rewrite the whole page from the model, as a publish does.
				pg := b.Fresh(p)
				m.rowAt[v] = epoch
				for j := range min(PageRows, r-p*PageRows) {
					u := p*PageRows + j
					copy(pg.Rows()[j*c:(j+1)*c], m.rows[u*c:(u+1)*c])
					pg.SetLabel(j, m.y[u])
					pg.StampRow(j, m.rowAt[u])
					pg.StampLabel(j, m.yAt[u])
				}
				continue
			}
			pg := b.Page(p)
			if rng.IntN(3) == 0 {
				m.y[v], m.yAt[v] = int32(rng.IntN(5)), epoch
				pg.SetLabel(i, m.y[v])
				pg.StampLabel(i, epoch)
			} else {
				m.rowAt[v] = epoch
				for j := range c {
					m.rows[v*c+j] = rng.Float64()
					pg.Rows()[i*c+j] = m.rows[v*c+j]
				}
				pg.StampRow(i, epoch)
			}
		}
		z = b.Done()
		m.check(t, z, "current")
		if prev.Paged() {
			for p := range (r + PageRows - 1) / PageRows {
				if shared := z.SameRow(p*PageRows, prev, p*PageRows); shared == touched[p] {
					t.Fatalf("epoch %d: page %d shared=%v, touched=%v", epoch, p, shared, touched[p])
				}
			}
		}
		if epoch%37 == 1 {
			held = append(held, kept{z, model{r, c, slices.Clone(m.rows), slices.Clone(m.y), slices.Clone(m.rowAt), slices.Clone(m.yAt)}})
		}
		for _, h := range held {
			h.m.check(t, h.z, "held")
		}
		for from := uint64(0); from <= epoch; from += 1 + from/8 {
			wantRows, wantLabels := m.since(from)
			for _, win := range [][2]int{{0, r}, {5, r - 9}, {33, 34}} {
				var gotRows, gotLabels []int
				w := z.Window(win[0], win[1])
				if !w.Since(from, func(v int, row, label bool) {
					if row {
						gotRows = append(gotRows, v+win[0])
					}
					if label {
						gotLabels = append(gotLabels, v+win[0])
					}
				}) {
					t.Fatalf("epoch %d: Since(%d) refused", epoch, from)
				}
				inWin := func(vs []int) []int {
					return slices.DeleteFunc(slices.Clone(vs), func(v int) bool { return v < win[0] || v >= win[1] })
				}
				if !slices.Equal(gotRows, inWin(wantRows)) || !slices.Equal(gotLabels, inWin(wantLabels)) {
					t.Fatalf("epoch %d window %v: Since(%d) rows %v labels %v, want %v %v",
						epoch, win, from, gotRows, gotLabels, inWin(wantRows), inWin(wantLabels))
				}
			}
		}
	}
}

// TestEditAllocatesItsPages pins the cost of an edit at the benchmark's
// scale (100k rows of 10): a one-row edit of a paged store allocates the
// chunk table, one chunk and one page — one pointer-free allocation of
// the page's header and rows — and nothing in proportion to the store.
func TestEditAllocatesItsPages(t *testing.T) {
	const r, c = 100_000, 10
	z := Fill(r, c, 0, r, nil, 0, 1, func(int, Page[float64]) {})
	row := make([]float64, c)
	for i := range row {
		row[i] = float64(i)
	}
	var next *Pages[float64]
	allocs, bytes := perRun(100, func() {
		b := z.Edit(1, nil)
		copy(b.Page(777).Rows()[c:2*c], row)
		next = b.Done()
	})
	table := uint64(numChunks(r) * 8)
	if want := table + table/8 + 1024; bytes > want {
		t.Errorf("a one-row edit allocated %d bytes, want ≤ %d (the chunk table, a chunk and a page)", bytes, want)
	}
	if allocs > 5 {
		t.Errorf("a one-row edit made %d allocations, want ≤ 5 (store, builder, table, chunk, page)", allocs)
	}
	if !slices.Equal(next.Row(777*PageRows+1, make([]float64, c)), row) || z.Row(777*PageRows+1, make([]float64, c))[1] != 0 {
		t.Error("the edit did not land in the new store only")
	}
}

// perRun returns the allocations and bytes one call of f makes, averaged
// in whole units over runs calls the way testing.AllocsPerRun averages.
// MemStats are process-wide and the runtime allocates on its own around a
// reading: restarting the world after ReadMemStats may start a thread (its
// m, two goroutine descriptors and two profiling stacks, five objects),
// and a GC worker still marking what came before takes a sudog. One call's
// reading carries those; the average over many leaves only f's own.
func perRun(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / uint64(runs), (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestConcurrentPagesAfterTouch fills an edit's pages from several
// goroutines at once — Fresh and Page alike, pages of one chunk on
// different goroutines — after touching them serially, the way a publish
// patches in parallel (run with -race), and checks every row landed.
func TestConcurrentPagesAfterTouch(t *testing.T) {
	const r, c = 2003, 3
	z := testPages[float64](r, c, false)
	b := z.Edit(1, z.Scale())
	var pages []int
	for p := 0; p < (r+PageRows-1)/PageRows; p += 1 + p%3 {
		pages = append(pages, p)
		b.Touch(p)
	}
	parallel.ForChunk(4, len(pages), 1, func(lo, hi int) {
		for _, p := range pages[lo:hi] {
			pg := b.Page(p)
			if p%2 == 0 {
				pg = b.Fresh(p)
			}
			for i := range PageRows {
				pg.Rows()[i*c] = -1
				pg.StampRow(i, 1)
			}
		}
	})
	next := b.Done()
	row := make([]float64, c)
	for _, p := range pages {
		for v := p * PageRows; v < min((p+1)*PageRows, r); v++ {
			if got := next.Row(v, row)[0]; got != -1*testInv(c)[0] {
				t.Fatalf("row %d column 0 = %v after the concurrent fill", v, got)
			}
			if at, _ := next.Stamps(v); at != 1 {
				t.Fatalf("row %d stamped %d, want 1", v, at)
			}
		}
	}
	checkRows(t, z, 0)
}
