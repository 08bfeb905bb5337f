// Package mat provides the minimal dense matrix type used for GEE's
// embedding matrix Z (n x K) and projection matrix W.
//
// Storage is a single row-major []float64 so that a row Z(u, ·) is
// contiguous — the layout the paper relies on for cache reuse during
// dense edge maps (§III: "Z(u,:) ... will be in the processor cache").
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	R, C int
	Data []float64 // len R*C, row-major
}

// NewDense allocates an R x C zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// FromRows builds a Dense from a slice of equal-length rows (copied).
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("mat: ragged rows")
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.C+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.C+j] = v }

// Add increments element (i, j) by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.C+j] += v }

// Row returns row i as a mutable slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// Zero resets all elements to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.R, m.C)
	copy(out.Data, m.Data)
	return out
}

// Scale multiplies every element by a.
func (m *Dense) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// m and other. Panics on shape mismatch.
func (m *Dense) MaxAbsDiff(other *Dense) float64 {
	if m.R != other.R || m.C != other.C {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.R, m.C, other.R, other.C))
	}
	var mx float64
	for i, v := range m.Data {
		if d := math.Abs(v - other.Data[i]); d > mx {
			mx = d
		}
	}
	return mx
}

// EqualTol reports whether m and other agree element-wise within a mixed
// absolute/relative tolerance: |a-b| <= tol * max(1, |a|, |b|).
func (m *Dense) EqualTol(other *Dense, tol float64) bool {
	if m.R != other.R || m.C != other.C {
		return false
	}
	for i, a := range m.Data {
		b := other.Data[i]
		scale := 1.0
		if aa := math.Abs(a); aa > scale {
			scale = aa
		}
		if bb := math.Abs(b); bb > scale {
			scale = bb
		}
		if math.Abs(a-b) > tol*scale {
			return false
		}
	}
	return true
}

// RowL2Normalize scales each nonzero row to unit Euclidean norm. This is
// the normalization the GEE paper applies before clustering embeddings.
func (m *Dense) RowL2Normalize() {
	for i := 0; i < m.R; i++ {
		row := m.Row(i)
		var s float64
		for _, v := range row {
			s += v * v
		}
		if s == 0 {
			continue
		}
		inv := 1 / math.Sqrt(s)
		for j := range row {
			row[j] *= inv
		}
	}
}

// ArgMaxRow returns the index of the maximum element of row i (ties go to
// the lowest index); -1 for a zero-width matrix.
func (m *Dense) ArgMaxRow(i int) int {
	if m.C == 0 {
		return -1
	}
	row := m.Row(i)
	best, bv := 0, row[0]
	for j := 1; j < m.C; j++ {
		if row[j] > bv {
			best, bv = j, row[j]
		}
	}
	return best
}
