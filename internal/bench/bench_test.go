package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/gee"
)

// tinyCfg keeps unit tests fast: huge scale divisor, one rep.
func tinyCfg() Config {
	return Config{ScaleDiv: 2048, Reps: 1, Workers: 4, K: 10, LabelFraction: 0.1, Seed: 7}
}

func TestSpecsMatchPaperSizes(t *testing.T) {
	if len(tableISpecs) != 6 {
		t.Fatalf("%d specs, want the paper's 6", len(tableISpecs))
	}
	for _, s := range tableISpecs {
		if _, ok := paperTableI[s.Name]; !ok {
			t.Fatalf("no paper numbers for %s", s.Name)
		}
		if s.PaperM < s.PaperN {
			t.Fatalf("%s: m < n", s.Name)
		}
	}
	if largestSpec().Name != "Friendster" {
		t.Fatal("largest spec must be Friendster")
	}
}

func TestScaledSize(t *testing.T) {
	s := tableISpecs[0] // Twitch 168k / 6.8M
	n, m := s.ScaledSize(16)
	if n != 10_500 || m != 425_000 {
		t.Fatalf("n=%d m=%d", n, m)
	}
	// floors: tiny divisor output still usable
	n, m = s.ScaledSize(1 << 30)
	if n < 1024 || m < n {
		t.Fatalf("floor broken: n=%d m=%d", n, m)
	}
	n, m = s.ScaledSize(0)
	if n != s.PaperN || m != s.PaperM {
		t.Fatalf("div=0 must mean full size, got n=%d m=%d", n, m)
	}
}

func TestBuildStandIn(t *testing.T) {
	el := tableISpecs[0].Build(4, 1024)
	if err := el.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(el.Edges) == 0 {
		t.Fatal("empty stand-in")
	}
	// deterministic
	el2 := tableISpecs[0].Build(8, 1024)
	if len(el.Edges) != len(el2.Edges) {
		t.Fatal("stand-in not deterministic across worker counts")
	}
	for i := range el.Edges {
		if el.Edges[i] != el2.Edges[i] {
			t.Fatal("stand-in edges differ across worker counts")
		}
	}
}

func TestFindSpec(t *testing.T) {
	s, err := FindSpec("Twitch")
	if err != nil || s.Name != "Twitch" {
		t.Fatalf("s=%v err=%v", s, err)
	}
	if _, err := FindSpec("nope"); err == nil {
		t.Fatal("unknown graph accepted")
	}
}

func TestPrepareAndTimeImpl(t *testing.T) {
	w := prepareWorkload(tableISpecs[0], tinyCfg())
	if w.G.NumEdges() != int64(len(w.EL.Edges)) {
		t.Fatal("CSR and edge list disagree")
	}
	for _, impl := range []gee.Impl{gee.Reference, gee.Optimized, gee.LigraSerial, gee.LigraParallel} {
		d, err := timeImpl(w, impl, tinyCfg())
		if err != nil {
			t.Fatalf("%v: %v", impl, err)
		}
		if d <= 0 {
			t.Fatalf("%v: nonpositive duration", impl)
		}
	}
}

func TestTimeFuncMedian(t *testing.T) {
	calls := 0
	d, err := timeFunc(5, func() error {
		calls++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || calls != 5 || d < time.Millisecond/2 {
		t.Fatalf("d=%v calls=%d err=%v", d, calls, err)
	}
}

func TestRunTableITiny(t *testing.T) {
	cfg := tinyCfg()
	rows, err := RunTableI(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Parallel <= 0 || r.Optimized <= 0 || r.Serial <= 0 || r.Reference <= 0 || r.Sharded <= 0 {
			t.Fatalf("%s: zero duration in %+v", r.Graph, r)
		}
		if r.SpeedupVsOptimized <= 0 || r.SpeedupVsSerial <= 0 || r.SpeedupVsReference <= 0 {
			t.Fatalf("%s: speedups not computed", r.Graph)
		}
		if r.ShardedVsParallel <= 0 {
			t.Fatalf("%s: sharded speedup not computed", r.Graph)
		}
	}
	var buf bytes.Buffer
	RenderTableI(&buf, rows, cfg)
	out := buf.String()
	for _, want := range []string{"Twitch", "Friendster", "Paper's Table I", "vs Ref"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Figure 2's bars are the Friendster row's times over its Optimized.
	last := rows[len(rows)-1]
	if last.Graph != "Friendster" {
		t.Fatalf("last row is %s, want Friendster", last.Graph)
	}
	for bar, want := range map[string]time.Duration{
		"Optimized (Numba analog)": last.Optimized,
		"GEE-Ligra serial":         last.Serial,
		"GEE-Ligra parallel":       last.Parallel,
	} {
		norm := fmt.Sprintf("%.3f", want.Seconds()/last.Optimized.Seconds())
		if got := fig2Bar(t, out, bar); got != norm {
			t.Fatalf("Figure 2 %q bar reads %s, want %s from the Friendster row:\n%s", bar, got, norm, out)
		}
	}
}

// fig2Bar returns the normalized value printed on the named Figure 2 bar.
func fig2Bar(t *testing.T, out, bar string) string {
	t.Helper()
	_, fig2, ok := strings.Cut(out, "Figure 2")
	if !ok {
		t.Fatalf("no Figure 2 block:\n%s", out)
	}
	for _, line := range strings.Split(fig2, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), bar+" "); ok {
			return strings.Fields(rest)[0]
		}
	}
	t.Fatalf("no %q bar in Figure 2:\n%s", bar, fig2)
	return ""
}

func TestRunTableISkipReference(t *testing.T) {
	cfg := tinyCfg()
	cfg.SkipReference = true
	rows, err := RunTableI(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Reference != 0 || rows[0].SpeedupVsReference != 0 {
		t.Fatal("reference timed despite SkipReference")
	}
	var buf bytes.Buffer
	RenderTableI(&buf, rows, cfg) // must not panic on missing column
}

func TestRunFig3Tiny(t *testing.T) {
	points, err := RunFig3(tinyCfg(), []int{1, 2, 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 || points[0].Cores != 1 {
		t.Fatalf("points=%v", points)
	}
	if points[0].Speedup != 1 {
		t.Fatalf("1-core speedup=%v", points[0].Speedup)
	}
	var buf bytes.Buffer
	RenderFig3(&buf, points)
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatal("render missing")
	}
}

func TestRunFig4Tiny(t *testing.T) {
	cfg := tinyCfg()
	points, err := RunFig4(cfg, 13, 15, 14, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("%d points", len(points))
	}
	// reference capped at 2^14
	if _, ok := points[2].Runtimes[gee.Reference]; ok {
		t.Fatal("reference should be capped at refMaxLog2")
	}
	if _, ok := points[0].Runtimes[gee.Reference]; !ok {
		t.Fatal("reference missing below the cap")
	}
	for _, p := range points {
		if p.Runtimes[gee.LigraParallel] <= 0 {
			t.Fatal("parallel curve missing")
		}
		if p.Runtimes[gee.ShardedParallel] <= 0 {
			t.Fatal("sharded curve missing")
		}
	}
	var buf bytes.Buffer
	RenderFig4(&buf, points)
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Fatal("render missing")
	}
}

func TestRunAblationTiny(t *testing.T) {
	res, err := RunAblation(tableISpecs[0], tinyCfg(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Atomic <= 0 || res.Unsafe <= 0 || res.Replicated <= 0 || res.Sharded <= 0 {
		t.Fatalf("%+v", res)
	}
	var buf bytes.Buffer
	RenderAblation(&buf, res)
	if !strings.Contains(buf.String(), "atomic writeAdd") {
		t.Fatal("render missing")
	}
	if !strings.Contains(buf.String(), "destination-sharded") {
		t.Fatal("sharded row missing from render")
	}
}

func TestRunWInitTiny(t *testing.T) {
	points, err := RunWInit(tinyCfg(), []float64{16, 1}, 1<<16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	// Lower average degree => larger n => W-init share must not shrink.
	if points[1].WInitPct < points[0].WInitPct {
		t.Logf("warning: W-init share fell from %.1f%% to %.1f%% (timing noise at tiny sizes)",
			points[0].WInitPct, points[1].WInitPct)
	}
	var buf bytes.Buffer
	RenderWInit(&buf, points)
	if !strings.Contains(buf.String(), "W-init") {
		t.Fatal("render missing")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ScaleDiv != 16 || c.Reps != 3 || c.K != 50 || c.LabelFraction != 0.1 {
		t.Fatalf("%+v", c)
	}
	if c.Workers < 1 {
		t.Fatal("workers default")
	}
}
