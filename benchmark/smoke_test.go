package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// lastLine parses the driver's JSON line off the end of a run's output.
func lastLine(t *testing.T, out string) report {
	t.Helper()
	out = strings.TrimRight(out, "\n")
	var rep report
	if err := json.Unmarshal([]byte(out[strings.LastIndexByte(out, '\n')+1:]), &rep); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return rep
}

// mayReadZero lists the layer metrics that are counts of events which
// need not happen, or latencies of routes a workload does not call.
var mayReadZero = map[string]bool{
	"server.rejected_429": true, "exec.plan_builds": true,
	"dyn.folds.serial": true, "dyn.folds.atomic": true, "dyn.folds.sharded": true, "dyn.full_epochs": true,
	"server.route_p50_ms.edges": true, "server.route_p50_ms.neighbors": true,
	"server.route_p50_ms.delta": true, "server.route_p50_ms.snapshot": true,
}

// TestAllWorkloadsAtToyScale runs every workload, untraced and traced,
// with every correctness check, at sizes that take about a second each:
// tier-1 covers the whole harness. Counts that the scripts fix must
// repeat exactly between two runs.
func TestAllWorkloadsAtToyScale(t *testing.T) {
	exact := []string{"exec.atomic_adds", "exec.plain_adds", "shard.cut_frac", "shard.fold_amplification",
		"client.sync_bytes_per_op", "client.resyncs", "dyn.full_epochs", "wire.delta_bytes_per_row"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := runOne(&out, w.name, 5, toySizing(), "0"); err != nil {
				t.Fatalf("untraced run: %v\n%s", err, out.String())
			}
			rep := lastLine(t, out.String())
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(endToEnd) {
				t.Fatalf("untraced result %+v", rep)
			}
			for _, d := range endToEnd {
				if m := rep.Metrics[d.Name]; m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %v %s, want a positive value in %s", d.Name, m.Value, m.Unit, d.Unit)
				}
			}

			var traced [2]report
			for i := range traced {
				out.Reset()
				if err := runOne(&out, w.name, 5, toySizing(), "1"); err != nil {
					t.Fatalf("traced run: %v\n%s", err, out.String())
				}
				traced[i] = lastLine(t, out.String())
				if !traced[i].Correct || len(traced[i].Metrics) != len(perLayer) {
					t.Fatalf("traced result has %d metrics, want %d", len(traced[i].Metrics), len(perLayer))
				}
			}
			for _, name := range exact {
				if a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value; a != b {
					t.Errorf("%s is %v in one run and %v in the next; a count must repeat exactly", name, a, b)
				}
			}
			// Every layer metric attributed to this workload was measured.
			for _, c := range perLayer {
				if c.measuredOn(w.name) && !mayReadZero[c.Name] && traced[0].Metrics[c.Name].Value == 0 {
					t.Errorf("%s reads 0 on %s, which should measure it", c.Name, w.name)
				}
			}
		})
	}
}

func TestFailedCheckFailsTheRun(t *testing.T) {
	res := newResult("serve_write", runConfig{seed: 1})
	res.attempted, res.failed, res.checkErr = 10, 10, errCheckFailed
	for _, d := range endToEnd {
		res.metrics[d.Name] = 1
	}
	line, err := res.line(endToEnd, true)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != 10 {
		t.Fatalf("a failed check printed %s", line)
	}
	delete(res.metrics, "rss_mb")
	if _, err := res.line(endToEnd, true); err == nil {
		t.Fatal("a missing end-to-end metric was printed as a placeholder")
	}
}

// BENCHMARK.json is generated by `go run ./benchmark -manifest`; the
// harness and the file must list the same workloads and metrics.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := currentManifest(); !reflect.DeepEqual(onDisk, want) {
		t.Fatalf("BENCHMARK.json differs from the harness; regenerate it with -manifest\n on disk: %+v\n harness: %+v", onDisk, want)
	}
	if len(workloads) != 5 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d per-layer metrics", len(workloads), len(perLayer))
	}
	// The driver allows at most 0.25, and set-up time, the noisiest
	// reading, must carry the largest bound.
	setup := endToEnd[len(endToEnd)-1]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("the last end-to-end metric is %+v, want setup_s", setup)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("%s: bound %v outside (0, 0.25] or above setup_s's %v", d.Name, d.Bound, setup.Bound)
		}
	}
}

// caseIndex is README.md's numbered case index: one row per layer metric
// with the workload that measures it and the end-to-end metric it is
// predicted to move.
func caseIndex() string {
	var b strings.Builder
	b.WriteString("| case | layer | workload | metric | unit | should move | status |\n")
	b.WriteString("|------|-------|----------|--------|------|-------------|--------|\n")
	for i, c := range perLayer {
		fmt.Fprintf(&b, "| B%03d | %s | %s | `%s` | %s | %s | measured |\n", i+1, c.layer, c.workload, c.Name, c.Unit, c.moves)
	}
	return b.String()
}

func TestCaseIndexMatchesREADME(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := caseIndex(); !strings.Contains(string(readme), want) {
		t.Fatalf("README.md's case index differs from the per-layer list; it should read\n%s", want)
	}
}
