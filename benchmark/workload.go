package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// A workload is one set of inputs the benchmark runs. Each runs in its
// own process, so its peak memory and set-up time are its own.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*result, error)
}

// workloads lists the five in the order they are reported.
// BENCHMARK.json repeats the names and reasons.
var workloads = []workload{
	{"embed_skewed", "RMAT scale-20 batch embed, K=50: hot rows make atomic adds contend; only graph, exec and gee run", runEmbedSkewed},
	{"serve_write", "64-edge HTTP writes on n=100k: dyn publish, the coalescer and HTTP/JSON dominate; exec and cluster idle", runServeWrite},
	{"serve_write_sharded", "the same scripts against 2 shards: shard.Split, scatter admission and N-fold publish dominate", runServeWriteSharded},
	{"serve_read", "read-only approximate top-10 queries on a warm IVF index: cluster and read handlers; write path bypassed", runServeRead},
	{"ingest_follow", "4096-edge inserts, deletes and label moves beside a binary-wire replica: wire, dyn.Delta and client dominate", runIngestFollow},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed uint64
	tr   *tracer // nil for the untraced run
	size sizing
	log  io.Writer // human-readable progress and the metric table
}

// sizing fixes how much work a workload's script holds. The work is
// fixed, not the time: a script is generated from the seed before the
// timer starts, so operation counts, sample counts and byte counts
// repeat exactly, and a faster system finishes sooner. The full sizes
// are chosen so each timed section lasts about the requested seconds at
// the speed of the commit that added the benchmark.
type sizing struct {
	rmatScale      int // log2 of embed_skewed's vertex count
	rmatEdgeFactor int // edges per vertex
	embedK         int
	embedPairs     int // timed oracle/implementation pairs

	baseN, baseK int // the served graph
	baseEdges    int

	writeRequests int // per client
	writeBatch    int // edges per request
	readQueries   int // per client
	followCycles  int
	followBatch   int // edges per insert
	followMoves   int // label moves per relabel request

	setups      int // how often the system set-up is repeated for its median
	probePairs  int // pairs per paired layer probe
	probeReps   int // repetitions per unpaired layer probe
	recallProbe int // queries in the recall check
}

// Operation rates at the speed of the commit that added the benchmark,
// on the 2-vCPU VM it was written on; they only size the scripts.
const (
	embedPairsPerSecond = 2.7
	writeRequestsPerSec = 200  // per client; the sharded target runs the same scripts
	readQueriesPerSec   = 1000 // per client
	followCyclesPerSec  = 40
)

// fullSizing is the measured configuration, scaled to the run length.
func fullSizing(seconds float64) sizing {
	scale := func(rate float64) int { return max(1, int(math.Round(rate*seconds))) }
	return sizing{
		rmatScale: 20, rmatEdgeFactor: 16, embedK: 50,
		embedPairs: max(4*minBeyond, scale(embedPairsPerSecond)),
		baseN:      100_000, baseK: 10, baseEdges: 700_000,
		writeRequests: scale(writeRequestsPerSec),
		writeBatch:    64,
		readQueries:   scale(readQueriesPerSec),
		followCycles:  scale(followCyclesPerSec),
		followBatch:   4096,
		followMoves:   64,
		setups:        5,
		probePairs:    6,
		probeReps:     30,
		recallProbe:   64,
	}
}

// toySizing runs every workload and every check in well under a second
// each; the package's tests use it so tier-1 covers the harness.
func toySizing() sizing {
	return sizing{
		rmatScale: 10, rmatEdgeFactor: 8, embedK: 6, embedPairs: 40,
		baseN: 3000, baseK: 5, baseEdges: 15_000,
		writeRequests: 30, writeBatch: 16,
		readQueries:  40,
		followCycles: 24, followBatch: 256, followMoves: 8,
		setups: 1, probePairs: 2, probeReps: 3, recallProbe: 16,
	}
}

// result is what one run reports.
type result struct {
	workload  string
	env       environment
	attempted int
	failed    int
	checkErr  error              // a failed correctness check
	metrics   map[string]float64 // end-to-end (untraced) or per-layer (traced)
	notes     map[string]string  // sample counts and the like, by metric
}

func newResult(name string, cfg runConfig) *result {
	return &result{
		workload: name, env: currentEnvironment(cfg.seed),
		metrics: make(map[string]float64), notes: make(map[string]string),
	}
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one workload of BENCHMARK.json.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest mirrors BENCHMARK.json; it is the single list of what a run
// must print, so the harness and the file cannot drift apart.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// line builds the contract's last output line: exactly the listed
// metrics, each with its unit. A metric the run did not measure is a
// layer the workload does not touch and reads 0; an end-to-end metric
// must always be measured.
func (r *result) line(defs []metricDef, endToEnd bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.checkErr == nil && r.failed == 0, r.attempted, r.failed, make(map[string]mv)}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if endToEnd && (!ok || v == 0 || math.IsNaN(v) || math.IsInf(v, 0)) {
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured (%v)", r.workload, d.Name, v)
		}
		out.Metrics[d.Name] = mv{v, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// table prints the measured metrics by name with their units.
func (r *result) table(w io.Writer, defs []metricDef) {
	unit := make(map[string]string, len(defs))
	for _, d := range defs {
		unit[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-22s %-44s %14.6g %-6s %s\n", r.workload, name, r.metrics[name], unit[name], r.notes[name])
	}
}
