//go:build linux

package gee

import (
	"os"
	osexec "os/exec"
	"runtime"
	"syscall"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/race"
)

// freshEmbedChild marks the re-executed test binary that performs the
// measured embed.
const freshEmbedChild = "GEE_FRESH_EMBED_CHILD"

// TestFreshEmbedFaultsEachPageOnce bounds the minor page faults of one
// EmbedCSR(LigraParallel) whose Z lands on a fresh span: at most 1.1
// per 4 KB page of Z. Walked untouched, each page faults twice — the
// first read maps the shared zero page, the first write replaces it —
// so an embed without csrEmbedTimed's page pass reads ~1.9. The fault
// counter is process-wide and a span is fresh only once per process, so
// the embed runs in a re-executed child that has allocated nothing as
// large as Z before it.
func TestFreshEmbedFaultsEachPageOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's shadow memory faults beside every page of Z")
	}
	if os.Getenv(freshEmbedChild) == "" {
		cmd := osexec.Command(os.Args[0], "-test.run=^TestFreshEmbedFaultsEachPageOnce$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), freshEmbedChild+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		t.Logf("child:\n%s", out)
		return
	}
	// Z is 2^16 × 64 × 8 B = 32 MB. The largest allocation before it is
	// the 12 MB edge list, kept live so that no span it frees can be
	// joined into one Z would reuse. Half the vertices are labelled, so
	// the walk writes into nearly every page.
	const k = 64
	el := gen.RMAT(2, 16, 16<<16, gen.Graph500Params, 71)
	g := graph.BuildCSR(2, el)
	y := make([]int32, g.N)
	for i := range y {
		y[i] = int32(i % k)
		if i%2 != 0 {
			y[i] = -1
		}
	}
	var before, after syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		t.Fatal(err)
	}
	res, err := EmbedCSR(LigraParallel, g, y, Options{K: k, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(el)
	pages := float64(len(res.Z.Data)*8) / 4096
	perPage := float64(after.Minflt-before.Minflt) / pages
	t.Logf("%d minor faults over %.0f pages of a fresh Z: %.3f per page", after.Minflt-before.Minflt, pages, perPage)
	if perPage > 1.1 {
		t.Errorf("a fresh embed took %.3f minor faults per 4 KB page of Z, want ≤ 1.1", perPage)
	}
}
