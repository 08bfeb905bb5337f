// Command benchmark is the repository's benchmark: five workloads over
// the embedding kernels (exec, gee), the dynamic embedder (dyn) and the
// serving tier (shard, server, client, wire, cluster), driven in
// process through their public packages and, for the serving
// workloads, over a real loopback TCP listener.
//
//	go run ./benchmark                          every workload, end-to-end metrics
//	go run ./benchmark -trace spans.json        ... and the traced run with the per-layer metrics
//	go run ./benchmark -workload serve_read     one workload; the last line is the driver's JSON
//	go run ./benchmark -aa -sets 10             two interleaved sets of the same binary, gap against bound
//
// See README.md in this directory for the workloads, the metrics and
// how they interact.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process and print the driver's JSON line last")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed section the scripts are sized for")
		trace    = flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; a path: traced, and the spans are written there as JSON")
		aa       = flag.Bool("aa", false, "self-check: two interleaved sets of runs of this binary must agree within each metric's bound")
		sets     = flag.Int("sets", 10, "runs per set and workload in -aa mode")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the harness defines it")
	)
	flag.Parse()
	var err error
	switch {
	case *manifest:
		err = printManifest(os.Stdout)
	case *aa:
		err = selfCheck(os.Stdout, *sets, *seconds)
	case *name != "":
		err = runOne(os.Stdout, *name, uint64(*seed), fullSizing(*seconds), *trace)
	default:
		err = runAll(os.Stdout, uint64(*seed), *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func printManifest(w io.Writer) error {
	b, err := json.MarshalIndent(currentManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// errCheckFailed marks a run whose outputs were wrong: the result line
// is still printed, with correct=false, and the exit code is non-zero.
var errCheckFailed = errors.New("correctness check failed")

// runOne runs one workload in this process at the given sizes. trace
// selects the untraced run and the end-to-end metrics ("0") or the
// traced run and the per-layer metrics.
func runOne(out io.Writer, name string, seed uint64, size sizing, trace string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := runConfig{seed: seed, size: size, log: out}
	defs := endToEnd
	if trace != "0" && trace != "" {
		cfg.tr = newTracer()
		defs = perLayerDefs()
	}
	res, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if cfg.tr != nil {
		spans := cfg.tr.finished()
		// The overhead estimate covers the timed section: the spans
		// recorded under it, times what recording one span costs.
		timedID, timedSeconds, inTimed := 0, 0.0, 0
		for _, s := range spans {
			if s.Layer == "bench" && s.Name == "timed" {
				timedID, timedSeconds = s.ID, float64(s.EndNS-s.StartNS)/1e9
			}
		}
		for _, s := range spans {
			if s.Parent == timedID {
				inTimed++
			}
		}
		res.metrics["trace.spans"] = float64(len(spans))
		res.metrics["trace.overhead_frac"] = float64(inTimed) * spanCost() / timedSeconds
		for layer, self := range layerSelfSeconds(spans) {
			res.notes["trace.spans"] += fmt.Sprintf(" %s=%.2fs", layer, self)
		}
		if trace != "1" {
			if err := writeSpans(trace, res.env, name, spans); err != nil {
				return err
			}
		}
	}
	env, err := json.Marshal(res.env)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# environment %s\n", env)
	if s := res.notes["scripts"]; s != "" {
		fmt.Fprintf(out, "# %s: %s\n", name, s)
	}
	res.table(out, defs)
	if res.checkErr != nil {
		fmt.Fprintf(out, "# %s: CHECK FAILED: %v\n", name, res.checkErr)
	}
	line, err := res.line(defs, cfg.tr == nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, line)
	if res.checkErr != nil || res.failed > 0 {
		return errCheckFailed
	}
	return nil
}

// report is the driver's JSON line, parsed back.
type report struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// child runs one workload in a fresh process of this binary, so its
// peak memory and set-up time are its own, and returns its table and
// its parsed result line.
func child(name string, seed uint64, seconds float64, trace string) (string, report, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", report{}, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	// The last line is the result object; the rest is the table.
	text, last := strings.TrimRight(stdout.String(), "\n"), ""
	if i := strings.LastIndexByte(text, '\n'); i >= 0 {
		text, last = text[:i], text[i+1:]
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return text, rep, fmt.Errorf("%s: %w", name, runErr)
		}
		return text, rep, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil || !rep.Correct {
		return text, rep, fmt.Errorf("%s: %d of %d operations failed", name, rep.Failed, rep.Attempted)
	}
	return text, rep, nil
}

// spansPath inserts the workload's name before the extension, so each
// workload's process writes its own file.
func spansPath(path, name string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + name + ext
}

// runAll runs every workload, each in a fresh process: first untraced
// for the end-to-end metrics, then, when trace is set, traced for the
// per-layer metrics, and reports the gap between the two runs as the
// tracing overhead.
func runAll(out io.Writer, seed uint64, seconds float64, trace string) error {
	start := time.Now()
	traced := trace != "0" && trace != ""
	var failures []string
	for _, w := range workloads {
		text, rep, err := child(w.name, seed, seconds, "0")
		fmt.Fprintln(out, text)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		if !traced {
			continue
		}
		arg := trace
		if trace != "1" {
			arg = spansPath(trace, w.name)
		}
		text, trep, err := child(w.name, seed, seconds, arg)
		fmt.Fprintln(out, text)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		plain, under := rep.Metrics["speedup_x"].Value, trep.Metrics["trace.traced_speedup_x"].Value
		fmt.Fprintf(out, "%-22s %-44s %14.6g %-6s untraced %.6g vs traced %.6g\n",
			w.name, "trace.overhead_frac."+w.name, 1-under/plain, "ratio", plain, under)
	}
	fmt.Fprintf(out, "# all workloads: %.1fs\n", time.Since(start).Seconds())
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}
