package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if _, err := percentile(seq(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples was reported")
	}
	v, err := percentile(seq(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-990.01) > 1e-9 {
		t.Fatalf("p99 of 1..1000 = %v, want 990.01", v)
	}
	if _, err := percentile(seq(39), 0.75); err == nil {
		t.Fatal("p75 of 39 samples was reported")
	}
}

func TestTailPercentileLadder(t *testing.T) {
	for _, c := range []struct {
		n int
		q float64
	}{{40, 0.75}, {99, 0.75}, {100, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {30000, 0.99}} {
		_, q, err := tailPercentile(seq(c.n))
		if err != nil || q != c.q {
			t.Errorf("%d samples: tail p%g (%v), want p%g", c.n, q*100, err, c.q*100)
		}
	}
	if _, _, err := tailPercentile(seq(39)); err == nil {
		t.Error("39 samples support no tail, but one was reported")
	}
}

// The driver takes quartiles with Python's statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := pythonQuartiles(seq(10))
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = pythonQuartiles([]float64{5, 1, 9, 3, 7})
	if q1 != 2 || q3 != 8 {
		t.Fatalf("quartiles of 1,3,5,7,9 = %v, %v; Python gives 2, 8", q1, q3)
	}
	if s := spread(seq(10)); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread of 1..10 = %v, want (8.25-2.75)/5.5", s)
	}
}

func TestPairTimerAlternatesAndDropsWarmup(t *testing.T) {
	var order []byte
	var after []int
	pt := pairTimer{warmup: 2, pairs: 4, after: func(pair int) { after = append(after, pair) }}
	calls := 0.0
	base := func() float64 { order = append(order, 'b'); calls++; return 2 * calls }
	impl := func() float64 { order = append(order, 'i'); calls++; return calls }
	tb, ti := pt.run(base, impl)
	if string(order) != "biibbiibbiib" {
		t.Fatalf("call order %s, want the first side to alternate per pair", order)
	}
	if len(tb) != 4 || len(ti) != 4 {
		t.Fatalf("%d and %d timed pairs, want 4 (2 warm-up pairs dropped)", len(tb), len(ti))
	}
	if len(after) != 6 || after[0] != -2 || after[5] != 3 {
		t.Fatalf("after hook saw pairs %v", after)
	}
	// Pair 0 is the third pair: base ran first as call 5, impl as call 6.
	if tb[0] != 10 || ti[0] != 6 {
		t.Fatalf("first timed pair (%v, %v), want (10, 6)", tb[0], ti[0])
	}
	r := ratios(tb, ti)
	if m := median(r); m <= 0 {
		t.Fatalf("median ratio %v", m)
	}
}
