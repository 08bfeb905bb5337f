package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dyn"
	"repro/internal/mat"
	"repro/internal/metrics"
)

// The indexed neighbor read path. An IVF index is built over one
// published snapshot and answers `mode: "approx"` /v1/neighbors queries
// from it, exactly for that snapshot's epoch (cluster.IVF.Search is the
// exact top-k). Publishes outpace index builds by design (a build clusters
// the whole matrix; a publish copies only the dirty row pages), so the cache is
// deliberately stale-tolerant: a query observing a newer published
// epoch kicks exactly one asynchronous rebuild and is answered from the
// previous index meanwhile — the response carries the epoch actually
// searched. Every shard indexes, whatever its row count: the walk is
// exact at any size, so there is no threshold under which a scan takes
// over. Only while no index exists yet (cold start) does an approx
// query fall back to the exact scan over the live snapshot. A build
// takes cluster.BuildIVF's defaults: there is nothing to tune.

// IndexStats reports the approximate index's state in /statsz.
type IndexStats struct {
	// Builds counts completed index builds this server lifetime.
	Builds int64
	// Epoch is the snapshot epoch the current index was built from
	// (0 when no index has been built yet).
	Epoch uint64
	// Lists is the current index's inverted-list count.
	Lists int
	// Stale reports whether the published epoch has moved past the
	// current index (a rebuild is pending or in flight).
	Stale bool
}

// builtIndex is one IVF index and the epoch of the version it was built
// from. The index owns a list-major copy of the rows it indexes, so it
// pins neither that version's pages nor its contiguous form.
type builtIndex struct {
	epoch uint64
	ivf   *cluster.IVF
}

// indexCache holds the current index and the single-flight rebuild
// state. Lock-free on the read side: Search-path loads are one atomic
// pointer read.
type indexCache struct {
	d *dyn.DynamicEmbedder
	// lo, hi is the embedder's owned row window: the index is built
	// over the owned view of the snapshot (rows [lo, hi)), so a sharded
	// server indexes only rows it is the authority for. Search results
	// are view-relative; callers add lo. Unsharded: [0, n).
	lo, hi  int
	cur     atomic.Pointer[builtIndex]
	buildWG sync.WaitGroup
	buildMu sync.Mutex // serializes kick-off/close checks, not builds-in-progress reads
	pending bool
	closed  bool
	builds  atomic.Int64

	// mBuild times completed index builds (nil until instrument).
	mBuild *metrics.Histogram
}

func newIndexCache(d *dyn.DynamicEmbedder) *indexCache {
	lo, hi := d.Owned()
	return &indexCache{d: d, lo: lo, hi: hi}
}

// view returns the owned-row window of ver's matrix — the rows this
// embedder publishes — as a borrowed slice of the version's contiguous
// form, which the version derives from its pages once and keeps. This
// is the only place the serving tier asks for that form: the exact scan
// and the index build need rows back to back, nothing else does (a
// query answered by a built index reads the index's own copy). Row i of
// the view is global row i+lo.
func (ic *indexCache) view(ver *dyn.Version) *mat.Dense {
	z := ver.Snapshot().Z
	return &mat.Dense{R: ic.hi - ic.lo, C: z.C, Data: z.Data[ic.lo*z.C : ic.hi*z.C]}
}

// current returns the freshest built index — possibly behind snap's
// epoch, nil while cold — and, when it trails snap, kicks one
// asynchronous rebuild against snap. Never blocks on a build. The
// comparisons are ordinal, not equality: a request that loaded its
// snapshot just before a publish-plus-rebuild landed must neither be
// answered by the *newer* index (IndexEpoch would exceed the
// response's Epoch, breaking the staleness contract — it falls back
// to exact on its own snapshot instead) nor kick a rebuild for its
// older epoch.
func (ic *indexCache) current(snap *dyn.Version) *builtIndex {
	idx := ic.cur.Load()
	if idx == nil || idx.epoch < snap.Epoch {
		ic.kick()
	}
	if idx != nil && idx.epoch > snap.Epoch {
		return nil
	}
	return idx
}

// kick starts a rebuild unless one is already in flight (single
// flight: concurrent stale readers must not pile up builds) or the
// cache is closed. The build clusters the *freshest* published
// snapshot, not the one the triggering query held — under sustained
// ingest many epochs publish during one build, and anchoring on the
// trigger's snapshot would leave every finished build further behind
// than it needs to be.
func (ic *indexCache) kick() {
	ic.buildMu.Lock()
	if ic.pending || ic.closed {
		ic.buildMu.Unlock()
		return
	}
	ic.pending = true
	ic.buildWG.Add(1)
	ic.buildMu.Unlock()
	go func() {
		defer ic.buildWG.Done()
		t0 := time.Now()
		ver := ic.d.Version()
		ivf := cluster.BuildIVF(0, ic.view(ver), cluster.IVFOptions{})
		// Builds are single-flight, so this store cannot race another
		// builder — but it must still never regress the cache to an
		// older epoch.
		if old := ic.cur.Load(); old == nil || old.epoch < ver.Epoch {
			ic.cur.Store(&builtIndex{epoch: ver.Epoch, ivf: ivf})
		}
		ic.builds.Add(1)
		if ic.mBuild != nil {
			ic.mBuild.ObserveSince(t0)
		}
		ic.buildMu.Lock()
		ic.pending = false
		ic.buildMu.Unlock()
	}()
}

// close refuses further kicks, then waits out any in-flight build (it
// touches only immutable snapshots, but it must not outlive Close into
// tests or process teardown). The gate matters even though Shutdown
// stops accepting connections first: an expired shutdown context
// returns from http.Shutdown while handlers are still running, and a
// late kick must neither leak its goroutine nor Add to a WaitGroup
// being waited on — a kick either acquired the lock before close (its
// Add is covered by the Wait) or observes closed and no-ops.
func (ic *indexCache) close() {
	ic.buildMu.Lock()
	ic.closed = true
	ic.buildMu.Unlock()
	ic.buildWG.Wait()
}

// instrument registers the index cache's instruments. Staleness is
// exposed as the epoch gap (published minus indexed), not a boolean:
// a dashboard wants to see the index fall behind, not just that it has.
func (ic *indexCache) instrument(reg *metrics.Registry, labels ...metrics.Label) {
	ic.mBuild = reg.Histogram("gee_index_build_seconds",
		"Wall time of one completed IVF index build.",
		metrics.DefLatencyBuckets, labels...)
	reg.CounterFunc("gee_index_builds_total",
		"Completed IVF index builds this server lifetime.",
		func() float64 { return float64(ic.builds.Load()) }, labels...)
	reg.GaugeFunc("gee_index_staleness_epochs",
		"Published epochs the approximate index trails by (0 = fresh or cold).",
		func() float64 {
			idx := ic.cur.Load()
			if idx == nil {
				return 0
			}
			pub := ic.d.Epoch()
			if pub <= idx.epoch {
				return 0
			}
			return float64(pub - idx.epoch)
		}, labels...)
	reg.GaugeFunc("gee_index_epoch",
		"Snapshot epoch the current approximate index was built from (0 = cold).",
		func() float64 {
			if idx := ic.cur.Load(); idx != nil {
				return float64(idx.epoch)
			}
			return 0
		}, labels...)
}

func (ic *indexCache) stats() IndexStats {
	st := IndexStats{Builds: ic.builds.Load()}
	if idx := ic.cur.Load(); idx != nil {
		st.Epoch = idx.epoch
		st.Lists = idx.ivf.Lists()
		st.Stale = ic.d.Epoch() != idx.epoch
	}
	return st
}
