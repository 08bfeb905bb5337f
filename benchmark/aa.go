package main

import (
	"fmt"
	"io"
)

// selfCheck is the A/A test every end-to-end metric must pass before it
// may gate a change: two sets of runs of this same binary, interleaved
// so both see the same drift of the machine, each run on another seed.
// For every workload and metric it prints both medians, their gap, each
// set's spread (quartile distance over median) and the bound. It applies
// the acceptance rule of the driver that consumes BENCHMARK.json: the
// gap of every metric, and the spread of every metric but setup_s, must
// stay inside the metric's bound.
func selfCheck(out io.Writer, sets int, seconds float64) error {
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	for i := 0; i < sets; i++ {
		for _, w := range workloads {
			for set := 0; set < 2; set++ {
				// Alternate which set goes first.
				set := (set + i) % 2
				seed := uint64(1 + i + set*sets)
				_, rep, err := child(w.name, seed, seconds, "0")
				if err != nil {
					return err
				}
				fmt.Fprintf(out, "# run %s set=%c seed=%d", w.name, 'A'+set, seed)
				for _, d := range endToEnd {
					k, v := key{w.name, d.Name}, rep.Metrics[d.Name].Value
					values[set][k] = append(values[set][k], v)
					fmt.Fprintf(out, " %s=%.6g", d.Name, v)
				}
				fmt.Fprintln(out)
			}
		}
		fmt.Fprintf(out, "# round %d of %d done\n", i+1, sets)
	}
	fmt.Fprintf(out, "| workload | metric | median A | median B | gap | spread A | spread B | bound | verdict |\n")
	fmt.Fprintf(out, "|----------|--------|----------|----------|-----|----------|----------|-------|---------|\n")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			k := key{w.name, d.Name}
			a, b := values[0][k], values[1][k]
			ma, mb := median(a), median(b)
			// The gap is how much worse B's median is than A's.
			gap := (mb - ma) / ma
			if d.Better == "higher" {
				gap = -gap
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case gap > d.Bound || -gap > d.Bound:
				verdict = "GAP"
			case d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "SPREAD"
			case d.Name != "setup_s" && (sa > d.Bound/3 || sb > d.Bound/3):
				verdict = "ok (spread over a third of the bound)"
			}
			if verdict == "GAP" || verdict == "SPREAD" {
				bad++
			}
			fmt.Fprintf(out, "| %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.name, d.Name, ma, mb, gap*100, sa*100, sb*100, d.Bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload/metric pairs do not repeat within their bound", bad)
	}
	return nil
}
