package cluster

import (
	"container/heap"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// KNNClassify predicts a label for every row of X by majority vote among
// its k nearest labeled rows (Euclidean distance). Rows with label >= 0
// in y are the training set; all rows receive predictions (training rows
// exclude themselves). Brute force, parallel over query rows — suitable
// for the evaluation-sized embeddings in this repository.
//
// This mirrors the GEE paper's evaluation protocol, which scores
// embeddings by semi-supervised vertex classification.
func KNNClassify(workers int, X *mat.Dense, y []int32, k int) []int32 {
	n := X.R
	if len(y) != n {
		panic("cluster: label length mismatch")
	}
	if k <= 0 {
		k = 1
	}
	var train []int
	for i, v := range y {
		if v >= 0 {
			train = append(train, i)
		}
	}
	pred := make([]int32, n)
	if len(train) == 0 {
		for i := range pred {
			pred[i] = -1
		}
		return pred
	}
	parallel.For(workers, n, func(q int) {
		row := X.Row(q)
		h := &distHeap{}
		heap.Init(h)
		for _, t := range train {
			if t == q {
				continue
			}
			d := sqDist(row, X.Row(t))
			if h.Len() < k {
				heap.Push(h, distEntry{d: d, label: y[t]})
			} else if d < (*h)[0].d {
				(*h)[0] = distEntry{d: d, label: y[t]}
				heap.Fix(h, 0)
			}
		}
		votes := map[int32]int{}
		for _, e := range *h {
			votes[e.label]++
		}
		best, bestCount := int32(-1), 0
		for l, c := range votes {
			if c > bestCount || (c == bestCount && (best == -1 || l < best)) {
				best, bestCount = l, c
			}
		}
		pred[q] = best
	})
	return pred
}

// distEntry pairs a squared distance with a training label.
type distEntry struct {
	d     float64
	label int32
}

// distHeap is a max-heap on distance (root = farthest kept neighbor).
type distHeap []distEntry

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d > h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
