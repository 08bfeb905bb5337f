// The latency histogram: fixed log-spaced buckets over lock-free
// atomic.Int64 cells. An Observe is a binary search over the (small,
// immutable) bound slice plus three atomic adds — no locks, no
// allocations — so it is cheap enough to sit on every request path.
// Quantiles are estimated from the bucket counts by linear
// interpolation inside the crossing bucket, which bounds the error by
// one bucket width: with log-spaced bounds that is a constant
// *relative* error, the right trade for latencies spanning five
// decades.

package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// Histogram counts observations into fixed buckets. Safe for fully
// concurrent Observe; Snapshot may run concurrently with writers and
// sees a monotonic (possibly slightly behind) view.
type Histogram struct {
	bounds []float64 // ascending upper bounds; implicit +Inf after
	cells  []atomic.Int64
	count  atomic.Int64
	sum    atomicFloat
}

// atomicFloat accumulates a float64 with a CAS loop on its bits. Sums
// are only read at scrape/report time, so the uncontended-add cost is
// all that matters.
type atomicFloat struct {
	bits atomic.Uint64
}

//gee:noalloc
func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) load() float64 { return math.Float64frombits(f.bits.Load()) }

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		cells:  make([]atomic.Int64, len(bounds)+1),
	}
}

// NewHistogram builds an unregistered histogram with the given
// ascending bucket bounds — for process-local measurement (load
// generators) that never gets scraped.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d", i))
		}
	}
	return newHistogram(bounds)
}

// Observe records one sample. NaN is dropped (a poisoned sample must
// not un-order the cumulative buckets).
//
//gee:noalloc
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// First bound >= v — exactly the le (less-or-equal) bucket contract.
	i := sort.SearchFloat64s(h.bounds, v)
	h.cells[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// ObserveSince records the seconds elapsed since t0.
//
//gee:noalloc
func (h *Histogram) ObserveSince(t0 time.Time) {
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations so far.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot copies the current state for merging and quantile
// estimation.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.cells)),
	}
	// Cells first, count/sum after: a sample landing mid-copy may be
	// missed entirely but never double-counted, and Count is re-derived
	// from the cells so the snapshot is internally consistent.
	for i := range h.cells {
		n := h.cells[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	s.Sum = h.sum.load()
	return s
}

// HistogramSnapshot is one histogram's state at a point in time.
type HistogramSnapshot struct {
	Bounds []float64 // ascending upper bounds; Counts has one extra +Inf cell
	Counts []int64   // per-bucket (non-cumulative) counts
	Count  int64
	Sum    float64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation inside the bucket where the cumulative count crosses
// the target rank. The estimate lands in the same bucket as the exact
// order statistic, so it is off by at most one bucket width. Returns 0
// on an empty snapshot; samples in the +Inf overflow bucket clamp to
// the last finite bound.
func (s *HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Target the (rank+1)-th smallest sample, matching the
	// sort-an-array convention xs[int(q*(len-1))].
	rank := int64(q*float64(s.Count-1)) + 1
	var cum int64
	for i, c := range s.Counts {
		if cum+c < rank {
			cum += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i == len(s.Bounds) {
			// Overflow bucket: no finite upper bound to interpolate
			// toward; the last finite bound is the best honest answer.
			return lo
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*float64(rank-cum)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Mean returns Sum/Count, or 0 when empty.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// collect renders the histogram in exposition form: cumulative
// _bucket{le="..."} lines, then _sum and _count. The le label appends
// after any preset labels.
func (h *Histogram) collect(w io.Writer, name, labels string) {
	// Splice le into the label block: {a="b"} becomes {a="b",le="…"}.
	prefix := name + `_bucket{`
	if labels != "" {
		prefix = name + "_bucket" + labels[:len(labels)-1] + ","
	}
	var cum int64
	for i := range h.cells {
		cum += h.cells[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fmt.Fprintf(w, "%sle=%q} %d\n", prefix, le, cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.sum.load()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, cum)
}

// ExpBuckets returns n log-spaced bucket bounds starting at start,
// each factor times the previous — the shape latency and size
// distributions want (constant relative resolution).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DefLatencyBuckets spans 50µs to ~26s in ×2 steps — wide enough for
// an in-memory row read and a cold O(nK) snapshot stream on one axis.
var DefLatencyBuckets = ExpBuckets(50e-6, 2, 20)

// DefSizeBuckets spans 64 B to ~1 GiB in ×4 steps for response and
// payload sizes.
var DefSizeBuckets = ExpBuckets(64, 4, 13)

// DefCountBuckets spans 1 to ~16M in ×4 steps for batch sizes and row
// counts.
var DefCountBuckets = ExpBuckets(1, 4, 13)
