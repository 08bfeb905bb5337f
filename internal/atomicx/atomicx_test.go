package atomicx

import (
	"sync"
	"testing"
)

func TestAddFloat64Serial(t *testing.T) {
	var x float64
	Add(&x, 1.5)
	if x != 1.5 {
		t.Fatalf("x=%v want 1.5", x)
	}
	Add(&x, 2.25)
	if x != 3.75 {
		t.Fatalf("x=%v want 3.75", x)
	}
	Add(&x, -3.75)
	if x != 0 {
		t.Fatalf("x=%v want 0", x)
	}
}

// TestAddFloat64Concurrent is the paper's Figure 1 scenario: many workers
// adding to the same cell must lose no updates. Deltas are small integers
// so every partial sum is exactly representable and the check is exact.
func TestAddFloat64Concurrent(t *testing.T) {
	const workers = 16
	const perWorker = 50_000
	var x float64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for range perWorker {
				Add(&x, 1)
			}
		}()
	}
	wg.Wait()
	if x != workers*perWorker {
		t.Fatalf("lost updates: x=%v want %v", x, workers*perWorker)
	}
}

// TestAddGenericFloat32Concurrent covers Add's float32 instantiation the
// same way: many workers on one cell, no update lost.
func TestAddGenericFloat32Concurrent(t *testing.T) {
	const workers = 8
	const perWorker = 20_000
	var x float32
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for range perWorker {
				Add(&x, 0.5)
			}
		}()
	}
	wg.Wait()
	if x != workers*perWorker/2 {
		t.Fatalf("lost updates: x=%v want %v", x, workers*perWorker/2)
	}
}

// TestAddFloat64ManyCells mimics the GEE update pattern: concurrent adds
// scattered over a vector, exact integer deltas, exact final check.
func TestAddFloat64ManyCells(t *testing.T) {
	const cells = 64
	const workers = 8
	const perWorker = 30_000
	vec := make([]float64, cells)
	var wg sync.WaitGroup
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				Add(&vec[(g+i)%cells], 2)
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for _, v := range vec {
		total += v
	}
	if total != 2*workers*perWorker {
		t.Fatalf("total=%v want %v", total, 2*workers*perWorker)
	}
}
