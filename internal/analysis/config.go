package analysis

// This file is the repo policy: which packages may race on purpose,
// which functions are declared hot paths, which fields are declared
// lock-guarded, which types carry attacker-controlled numbers. The
// Required lists make the source annotations load-bearing — deleting a
// //gee: comment from the code makes the corresponding analyzer fail
// here, instead of silently dropping the check.

// DefaultAnalyzers returns the five analyzers configured for this
// repository. cmd/geevet and the repo-wide test both run exactly this
// set.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		&AtomicCell{
			AtomicPkgs: []string{
				"sync/atomic",
				"repro/internal/atomicx",
			},
			// The paper's benign-race executor is the one deliberate
			// exception; it must declare itself.
			RacyAllowed:  []string{"repro/internal/exec"},
			RacyRequired: []string{"repro/internal/exec"},
		},
		&BoundedMake{
			SourceTypes: []string{
				// Wire-decoded frame header: every count in it is
				// attacker-chosen until BodySize caps it.
				"repro/internal/wire.Header",
				// Request bodies: numbers a client posts.
				"repro/internal/server.NeighborsRequest",
			},
			SourceCalls: []string{
				"encoding/binary.Uvarint",
				"encoding/binary.Varint",
				"encoding/binary.ReadUvarint",
				"encoding/binary.ReadVarint",
			},
		},
		&NoAlloc{
			Required: []string{
				// Streamer numeric writers: every float of an n×K
				// snapshot passes through these.
				"(*repro/internal/server.streamer).intv",
				"(*repro/internal/server.streamer).floatv",
				// The sticky writer the streamers feed.
				"(*repro/internal/sticky.Writer).Write",
				"(*repro/internal/sticky.Writer).WriteString",
				"(*repro/internal/sticky.Writer).WriteByte",
				// Published rows: every read path fetches its rows
				// through the paged store's accessors, which normalise
				// into the caller's buffer.
				"(*repro/internal/rows.Pages).Row",
				"(*repro/internal/rows.Pages).Rows",
				// Metrics: Observe sits on every request path.
				"(*repro/internal/metrics.Histogram).Observe",
				"(*repro/internal/metrics.Histogram).ObserveSince",
				// Trace flight recorder: publish must not allocate or
				// it shows up in every profile it exists to explain.
				"(*repro/internal/trace.ring).record",
				"(*repro/internal/trace.Recorder).Record",
				// Exec kernels: the per-edge inner loop, the CSR arc
				// walk every strategy shares, its two unit-weight
				// loops, and its atomic add.
				"repro/internal/exec.walk",
				"repro/internal/exec.walkUnitAtomic",
				"repro/internal/exec.walkUnitPlain",
				"repro/internal/atomicx.Add",
				"(*repro/internal/exec.Kernel).Apply",
				"(*repro/internal/exec.Kernel).ApplyAtomic",
				"(*repro/internal/exec.Kernel).ApplySrc",
				"(*repro/internal/exec.Kernel).ApplyDst",
				"(*repro/internal/exec.Kernel).scale",
				// Neighbor reads: the one block scan under TopK and
				// the IVF probes, run once per row of every query.
				"(*repro/internal/cluster.query).scan",
				// Delete detach: the touch pass over every deleted
				// edge's adjacency lists.
				"repro/internal/dyn.touch",
			},
			StdlibAllowed: []string{
				"strconv.Append",
				"sync/atomic.",
				"(*sync/atomic.",
				"(sync/atomic.",
				"math.",
				"sort.Search",
				"time.Since",
				"time.Now",
				"(time.Time).",
				"(time.Duration).",
				"encoding/binary.",
				"(encoding/binary.",
				"(*bufio.Writer).Write",
				"(*bufio.Writer).WriteString",
				"(*bufio.Writer).WriteByte",
				"unsafe.",
			},
		},
		&GuardedField{
			Required: []string{
				// The coalescer's accept/close handshake: losing the mu
				// on either side re-opens the send-on-closed-channel
				// crash PR 5 fixed.
				"repro/internal/server.Coalescer.closed",
				// The scatter-gather router's close latch: submit checks
				// it before locking target coalescers, close sets it.
				// Unguarded, a submit racing close could enqueue into a
				// coalescer whose queue is being torn down.
				"repro/internal/server.router.closed",
				// Per-route status counters: map mutated on first
				// sighting of a status code, read on every response.
				"repro/internal/server.routeMetrics.status",
			},
		},
		&StickyWrite{
			Blessed: []string{
				"repro/internal/sticky.Writer",
				"strings.Builder", // Write* never returns an error
				"bytes.Buffer",    // ditto (panics on OOM instead)
			},
		},
	}
}
