package atomicx

import (
	"math"
	"sync"
	"testing"
)

func TestAddFloat64Serial(t *testing.T) {
	var x float64
	if got := AddFloat64(&x, 1.5); got != 1.5 {
		t.Fatalf("returned %v want 1.5", got)
	}
	AddFloat64(&x, 2.25)
	if x != 3.75 {
		t.Fatalf("x=%v want 3.75", x)
	}
	AddFloat64(&x, -3.75)
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
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Odd workers go through the width-generic Add: both
				// forms must interoperate on one cell.
				if g%2 == 0 {
					AddFloat64(&x, 1)
				} else {
					Add(&x, 1)
				}
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

func TestMinFloat64(t *testing.T) {
	x := math.Inf(1)
	if !MinFloat64(&x, 5) {
		t.Fatal("min should have replaced +Inf")
	}
	if MinFloat64(&x, 7) {
		t.Fatal("7 should not replace 5")
	}
	if !MinFloat64(&x, -1) {
		t.Fatal("-1 should replace 5")
	}
	if x != -1 {
		t.Fatalf("x=%v want -1", x)
	}
	if MinFloat64(&x, -1) {
		t.Fatal("equal value must not report replacement")
	}
}

func TestMinFloat64ConcurrentFindsGlobalMin(t *testing.T) {
	x := math.Inf(1)
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10_000; i++ {
				MinFloat64(&x, float64((g*10_000+i)%7919))
			}
		}(g)
	}
	wg.Wait()
	if x != 0 {
		t.Fatalf("global min %v want 0", x)
	}
}

func TestMaxFloat64(t *testing.T) {
	x := math.Inf(-1)
	if !MaxFloat64(&x, 5) {
		t.Fatal("max should replace -Inf")
	}
	if MaxFloat64(&x, 3) {
		t.Fatal("3 should not replace 5")
	}
	if x != 5 {
		t.Fatalf("x=%v want 5", x)
	}
}

func TestLoadStoreFloat64(t *testing.T) {
	var x float64
	StoreFloat64(&x, 42.5)
	if LoadFloat64(&x) != 42.5 {
		t.Fatalf("load=%v", LoadFloat64(&x))
	}
}

func TestCASUint32(t *testing.T) {
	var x uint32
	if !CASUint32(&x, 0, 7) {
		t.Fatal("CAS 0->7 failed")
	}
	if CASUint32(&x, 0, 9) {
		t.Fatal("CAS with stale old succeeded")
	}
	if x != 7 {
		t.Fatalf("x=%d want 7", x)
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
				AddFloat64(&vec[(g+i)%cells], 2)
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
