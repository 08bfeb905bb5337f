package cluster

import "math"

// Contingency builds the confusion table between two labelings (values
// may be any small non-negative ints; -1 entries are skipped in both).
func Contingency(a, b []int32) (table [][]int64, na, nb int) {
	if len(a) != len(b) {
		panic("cluster: labeling length mismatch")
	}
	for i := range a {
		if int(a[i])+1 > na {
			na = int(a[i]) + 1
		}
		if int(b[i])+1 > nb {
			nb = int(b[i]) + 1
		}
	}
	table = make([][]int64, na)
	for i := range table {
		table[i] = make([]int64, nb)
	}
	for i := range a {
		if a[i] < 0 || b[i] < 0 {
			continue
		}
		table[a[i]][b[i]]++
	}
	return table, na, nb
}

// ARI computes the Adjusted Rand Index between two labelings: 1 for
// identical partitions (up to relabeling), ~0 for independent ones.
func ARI(a, b []int32) float64 {
	table, na, nb := Contingency(a, b)
	if na == 0 || nb == 0 {
		return 0
	}
	choose2 := func(x int64) float64 { return float64(x) * float64(x-1) / 2 }
	var n int64
	rows := make([]int64, na)
	cols := make([]int64, nb)
	for i := range table {
		for j, c := range table[i] {
			rows[i] += c
			cols[j] += c
			n += c
		}
	}
	var sij float64
	for i := range table {
		for _, c := range table[i] {
			sij += choose2(c)
		}
	}
	var sa, sb float64
	for _, r := range rows {
		sa += choose2(r)
	}
	for _, c := range cols {
		sb += choose2(c)
	}
	total := choose2(n)
	if total == 0 {
		return 0
	}
	expected := sa * sb / total
	maxIdx := (sa + sb) / 2
	if maxIdx == expected {
		return 0
	}
	return (sij - expected) / (maxIdx - expected)
}

// NMI computes normalized mutual information (arithmetic-mean
// normalization) between two labelings.
func NMI(a, b []int32) float64 {
	table, na, nb := Contingency(a, b)
	if na == 0 || nb == 0 {
		return 0
	}
	var n float64
	rows := make([]float64, na)
	cols := make([]float64, nb)
	for i := range table {
		for j, c := range table[i] {
			rows[i] += float64(c)
			cols[j] += float64(c)
			n += float64(c)
		}
	}
	if n == 0 {
		return 0
	}
	var mi, ha, hb float64
	for i := range table {
		for j, c := range table[i] {
			if c == 0 {
				continue
			}
			p := float64(c) / n
			mi += p * math.Log(p*n*n/(rows[i]*cols[j]))
		}
	}
	for _, r := range rows {
		if r > 0 {
			p := r / n
			ha -= p * math.Log(p)
		}
	}
	for _, c := range cols {
		if c > 0 {
			p := c / n
			hb -= p * math.Log(p)
		}
	}
	den := (ha + hb) / 2
	if den == 0 {
		return 1 // both partitions trivial and identical
	}
	return mi / den
}

// Accuracy computes exact label agreement (no relabeling) over positions
// where both labelings are known (>= 0).
func Accuracy(pred, truth []int32) float64 {
	if len(pred) != len(truth) {
		panic("cluster: labeling length mismatch")
	}
	var n, ok int
	for i := range pred {
		if pred[i] < 0 || truth[i] < 0 {
			continue
		}
		n++
		if pred[i] == truth[i] {
			ok++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}
