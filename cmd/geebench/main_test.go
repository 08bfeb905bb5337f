package main

import (
	"testing"

	"repro/internal/bench"
)

// tiny keeps the driver tests fast: huge divisor, one rep.
func tiny() bench.Config {
	return bench.Config{ScaleDiv: 4096, Reps: 1, Workers: 4, K: 8, LabelFraction: 0.1, Seed: 3}
}

func TestRunEachExperiment(t *testing.T) {
	cfg := tiny()
	for _, exp := range []string{"table1", "ablation"} {
		if err := run(exp, cfg, 13, 13, 13, "Twitch", ""); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	if err := run("fig4", cfg, 13, 14, 13, "Twitch", t.TempDir()); err != nil {
		t.Fatalf("fig4: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"bogus", "baselines", "fig2"} {
		if err := run(exp, tiny(), 13, 13, 13, "Twitch", ""); err == nil {
			t.Fatalf("unknown experiment %q accepted", exp)
		}
	}
}

func TestRunUnknownGraph(t *testing.T) {
	if err := run("ablation", tiny(), 13, 13, 13, "NotAGraph", ""); err == nil {
		t.Fatal("unknown graph accepted")
	}
}
