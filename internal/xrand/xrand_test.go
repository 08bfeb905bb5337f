package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestStreamsIndependent(t *testing.T) {
	s0, s1 := NewStream(7, 0), NewStream(7, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if s0.Uint64() == s1.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("substreams overlap: %d equal outputs", same)
	}
}

func TestStreamDeterministic(t *testing.T) {
	a := NewStream(99, 5)
	b := NewStream(99, 5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("substream not deterministic")
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := New(8)
	for i := 0; i < 1000; i++ {
		if v := r.uint64n(64); v >= 64 {
			t.Fatalf("uint64n(64)=%d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10_000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64()=%v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	var sum float64
	const n = 200_000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean=%v, expected ~0.5", mean)
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(17)
	const buckets = 10
	const n = 100_000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(23)
	const n = 200_000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean=%v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance=%v", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 25, 100, 5000} {
		r := New(uint64(53 + int(lambda)))
		const n = 20_000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(lambda))
		}
		mean := sum / n
		// Poisson stderr = sqrt(lambda/n); allow 6 sigma.
		tol := 6 * math.Sqrt(lambda/float64(n))
		if math.Abs(mean-lambda) > tol+0.05 {
			t.Fatalf("lambda=%v: sample mean %v", lambda, mean)
		}
	}
}

func TestPoissonNonNegative(t *testing.T) {
	r := New(61)
	for i := 0; i < 10_000; i++ {
		if r.Poisson(40) < 0 {
			t.Fatal("negative Poisson draw")
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive lambda must be 0")
	}
}

func TestMix64Injective(t *testing.T) {
	f := func(a, b uint64) bool {
		if a == b {
			return true
		}
		return Mix64(a) != Mix64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
