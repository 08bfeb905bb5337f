package bench

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/gee"
	"repro/internal/graph"
	"repro/internal/labels"
)

// Config controls a benchmark campaign.
type Config struct {
	// ScaleDiv divides every paper dataset size. 16 fits the full
	// Table I in ~20 GB; tests use much larger divisors.
	ScaleDiv int64
	// Reps per measurement; the median is reported (default 3).
	Reps int
	// Workers for the parallel implementation (default GOMAXPROCS).
	Workers int
	// K is the number of classes (paper: 50).
	K int
	// LabelFraction is the labeled share of nodes (paper: 0.1).
	LabelFraction float64
	// SkipReference drops the slow faithful-Algorithm-1 rows (its full
	// n×K W matrix dominates memory at small divisors).
	SkipReference bool
	Seed          uint64
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.ScaleDiv <= 0 {
		c.ScaleDiv = 16
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.K <= 0 {
		c.K = 50
	}
	if c.LabelFraction <= 0 {
		c.LabelFraction = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 12345
	}
	return c
}

// workload is a prepared benchmark input: the graph in both
// representations plus labels, so each implementation consumes its
// native form and graph construction stays out of the timed region
// (matching the paper, which times the algorithm only).
type workload struct {
	Name string
	EL   *graph.EdgeList
	G    *graph.CSR
	Y    []int32
	K    int
}

// prepareWorkload builds the stand-in graph and labels for a spec.
func prepareWorkload(spec GraphSpec, cfg Config) *workload {
	cfg = cfg.withDefaults()
	el := spec.Build(cfg.Workers, cfg.ScaleDiv)
	g := graph.BuildCSR(cfg.Workers, el)
	y := labels.SampleSemiSupervised(el.N, cfg.K, cfg.LabelFraction, cfg.Seed+spec.Seed)
	return &workload{Name: spec.Name, EL: el, G: g, Y: y, K: cfg.K}
}

// timeImpl runs one implementation on a prepared workload and returns
// the median wall-clock duration over cfg.Reps repetitions.
func timeImpl(w *workload, impl gee.Impl, cfg Config) (time.Duration, error) {
	cfg = cfg.withDefaults()
	opts := gee.Options{K: w.K, Workers: cfg.Workers}
	return timeFunc(cfg.Reps, func() error {
		var err error
		switch impl {
		case gee.Reference, gee.Optimized:
			// edge-list implementations consume E directly
			_, err = gee.Embed(impl, w.EL, w.Y, opts)
		default:
			_, err = gee.EmbedCSR(impl, w.G, w.Y, opts)
		}
		return err
	})
}

// timeFunc medians an arbitrary timed body over reps repetitions
// (default 3).
func timeFunc(reps int, body func() error) (time.Duration, error) {
	if reps <= 0 {
		reps = 3
	}
	times := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := body(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], nil
}
