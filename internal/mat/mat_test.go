package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.R != 3 || m.C != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape %dx%d len %d", m.R, m.C, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("not zeroed")
		}
	}
}

func TestAtSetAdd(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At=%v", m.At(1, 2))
	}
	m.Add(1, 2, 2.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("after Add: %v", m.At(1, 2))
	}
	if m.At(0, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("unexpected writes to other cells")
	}
}

func TestRowAliases(t *testing.T) {
	m := NewDense(2, 2)
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias storage")
	}
	if len(r) != 2 {
		t.Fatalf("row length %d", len(r))
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.R != 3 || m.C != 2 {
		t.Fatalf("shape %dx%d", m.R, m.C)
	}
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Fatal("wrong values")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestZeroScale(t *testing.T) {
	m := FromRows([][]float64{{2, -4}})
	m.Scale(0.5)
	if m.At(0, 0) != 1 || m.At(0, 1) != -2 {
		t.Fatalf("scale wrong: %v", m.Data)
	}
	m.Zero()
	if m.At(0, 0) != 0 || m.At(0, 1) != 0 {
		t.Fatal("zero failed")
	}
}

func TestMaxAbsAndDiff(t *testing.T) {
	a := FromRows([][]float64{{1, -7, 3}})
	b := FromRows([][]float64{{1, -4, 3.5}})
	if d := a.MaxAbsDiff(b); d != 3 {
		t.Fatalf("MaxAbsDiff=%v want 3", d)
	}
}

func TestMaxAbsDiffShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	NewDense(1, 2).MaxAbsDiff(NewDense(2, 1))
}

func TestEqualTol(t *testing.T) {
	a := FromRows([][]float64{{1e9, 1}})
	b := FromRows([][]float64{{1e9 + 1, 1 + 1e-12}})
	if !a.EqualTol(b, 1e-8) {
		t.Fatal("should be equal within relative tol")
	}
	if a.EqualTol(b, 1e-12) {
		t.Fatal("should differ at tight tol")
	}
	if a.EqualTol(NewDense(1, 3), 1) {
		t.Fatal("shape mismatch must be unequal")
	}
}

func TestRowL2Normalize(t *testing.T) {
	m := FromRows([][]float64{{3, 4}, {0, 0}, {0, 2}})
	m.RowL2Normalize()
	if math.Abs(m.At(0, 0)-0.6) > 1e-15 || math.Abs(m.At(0, 1)-0.8) > 1e-15 {
		t.Fatalf("row0=%v", m.Row(0))
	}
	if m.At(1, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("zero row must stay zero")
	}
	if m.At(2, 1) != 1 {
		t.Fatalf("row2=%v", m.Row(2))
	}
}

func TestArgMaxRow(t *testing.T) {
	m := FromRows([][]float64{{1, 3, 2}, {5, 5, 4}})
	if m.ArgMaxRow(0) != 1 {
		t.Fatalf("argmax row0 = %d", m.ArgMaxRow(0))
	}
	if m.ArgMaxRow(1) != 0 { // tie -> lowest index
		t.Fatalf("argmax row1 = %d", m.ArgMaxRow(1))
	}
	if NewDense(1, 0).ArgMaxRow(0) != -1 {
		t.Fatal("zero-width argmax must be -1")
	}
}

func TestEqualTolReflexiveProperty(t *testing.T) {
	f := func(vals []float64) bool {
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		m := &Dense{R: 1, C: len(vals), Data: vals}
		return m.EqualTol(m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative dims did not panic")
		}
	}()
	NewDense(-1, 2)
}
