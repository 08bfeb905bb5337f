package cluster

import (
	"testing"

	"repro/internal/mat"
)

func TestKNNClassifyBlobs(t *testing.T) {
	X, truth := blobs(3, 100, 4, 8, 21)
	// mask 80% of the labels
	y := make([]int32, len(truth))
	for i := range y {
		if i%5 == 0 {
			y[i] = truth[i]
		} else {
			y[i] = -1
		}
	}
	pred := KNNClassify(8, X, y, 5)
	if acc := Accuracy(pred, truth); acc < 0.98 {
		t.Fatalf("kNN accuracy %v on separated blobs", acc)
	}
}

func TestKNNClassifyK1Exact(t *testing.T) {
	X := mat.FromRows([][]float64{{0}, {0.1}, {10}, {10.1}})
	y := []int32{0, -1, 1, -1}
	pred := KNNClassify(2, X, y, 1)
	// Unlabeled rows take their nearest training label; labeled rows
	// exclude themselves, so each takes the OTHER training point's label.
	want := []int32{1, 0, 0, 1}
	for i := range want {
		if pred[i] != want[i] {
			t.Fatalf("pred=%v want %v", pred, want)
		}
	}
}

func TestKNNClassifyNoTraining(t *testing.T) {
	X := mat.FromRows([][]float64{{1}, {2}})
	pred := KNNClassify(2, X, []int32{-1, -1}, 3)
	if pred[0] != -1 || pred[1] != -1 {
		t.Fatalf("pred=%v want all -1", pred)
	}
}

func TestKNNClassifyExcludesSelf(t *testing.T) {
	// two labeled points of different classes: each must predict the
	// OTHER's class with k=1 (self excluded)
	X := mat.FromRows([][]float64{{0}, {1}})
	y := []int32{0, 1}
	pred := KNNClassify(1, X, y, 1)
	if pred[0] != 1 || pred[1] != 0 {
		t.Fatalf("pred=%v (self not excluded?)", pred)
	}
}

func TestKNNClassifyKLargerThanTraining(t *testing.T) {
	X := mat.FromRows([][]float64{{0}, {0.5}, {9}})
	y := []int32{0, 0, -1}
	pred := KNNClassify(1, X, y, 50)
	if pred[2] != 0 {
		t.Fatalf("pred=%v", pred)
	}
}

func TestKNNPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	KNNClassify(1, mat.NewDense(2, 1), []int32{0}, 1)
}
