// Package shard partitions the vertex space of a GEE embedding across
// N independent dyn.DynamicEmbedder instances, the unit of scale-out
// for the serving tier. The partition is contiguous: shard i owns the
// vertex range [Bounds[i], Bounds[i+1]) and is the authority for those
// rows of Z and those entries of Y.
//
// The one-pass GEE formulation makes the split exact rather than
// approximate. An edge (u, v) contributes to exactly the two endpoint
// rows, so delivering it to owner(u) and owner(v) (once, when they
// coincide) gives every owner the full incident mass of its rows.
// Labels are broadcast to every shard: the 1/n_k normalization needs
// the *global* class counts, and a relabel of v slides mass inside the
// rows of v's neighbors — which may live on any shard. Each shard
// therefore runs the unrestricted fold over the full vertex range (a
// cut edge also deposits mass into the non-owned endpoint's row, a
// consistent partial sum that is simply never published); only the
// published rows and delta tracking are restricted to the
// owned range via dyn.Options.OwnedLo/OwnedHi. The union of the owned
// row ranges across shards is, bit for bit under serial folds and
// within float-summation reordering otherwise, the single-embedder
// embedding — the property test in this package pins that down.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/dyn"
	"repro/internal/graph"
)

// Partition is a contiguous split of the vertex range [0, N) into
// Shards() ranges. Immutable after NewPartition; safe for concurrent
// use.
type Partition struct {
	N      int
	bounds []uint32 // len Shards()+1; bounds[0]=0, bounds[last]=N, strictly increasing
}

// NewPartition splits n vertices into `shards` contiguous ranges of
// near-equal width (the first n mod shards ranges are one wider). Every
// shard owns at least one vertex, so shards must not exceed n.
func NewPartition(n, shards int) (*Partition, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: %d vertices", n)
	}
	if shards <= 0 {
		return nil, fmt.Errorf("shard: %d shards", shards)
	}
	if shards > n {
		return nil, fmt.Errorf("shard: %d shards for %d vertices (every shard must own at least one)", shards, n)
	}
	bounds := make([]uint32, shards+1)
	width, extra := n/shards, n%shards
	at := 0
	for i := 0; i < shards; i++ {
		bounds[i] = uint32(at)
		at += width
		if i < extra {
			at++
		}
	}
	bounds[shards] = uint32(n)
	return &Partition{N: n, bounds: bounds}, nil
}

// NewPartitionFromBounds rebuilds a partition from serialized bounds
// (as carried in Meta): len(bounds) = shards+1, bounds[0] = 0, strictly
// increasing, bounds[last] = n.
func NewPartitionFromBounds(n int, bounds []uint32) (*Partition, error) {
	if n <= 0 || len(bounds) < 2 {
		return nil, fmt.Errorf("shard: bad bounds (n=%d, %d entries)", n, len(bounds))
	}
	if bounds[0] != 0 || int(bounds[len(bounds)-1]) != n {
		return nil, fmt.Errorf("shard: bounds must span [0,%d), got [%d,%d]", n, bounds[0], bounds[len(bounds)-1])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("shard: bounds not strictly increasing at %d", i)
		}
	}
	return &Partition{N: n, bounds: append([]uint32(nil), bounds...)}, nil
}

// Shards returns the number of ranges.
func (p *Partition) Shards() int { return len(p.bounds) - 1 }

// Bounds returns a copy of the range boundaries (len Shards()+1), the
// serializable form carried in Meta.
func (p *Partition) Bounds() []uint32 { return append([]uint32(nil), p.bounds...) }

// Owner returns the shard owning vertex v. A v at or past N maps to the
// last shard (callers validate range; this keeps Owner total).
func (p *Partition) Owner(v graph.NodeID) int {
	// First bound strictly above v, minus one: bounds[i] <= v < bounds[i+1].
	i := sort.Search(len(p.bounds), func(i int) bool { return p.bounds[i] > v })
	if i <= 0 {
		return 0
	}
	if i >= len(p.bounds) {
		return p.Shards() - 1
	}
	return i - 1
}

// Range returns shard i's owned vertex range [lo, hi).
func (p *Partition) Range(i int) (lo, hi uint32) { return p.bounds[i], p.bounds[i+1] }

// EpochVector is a per-shard published-epoch vector, the sharded
// generalization of the scalar ack epoch: a write acked with vector E
// is reflected in any read whose shard-s data epoch is >= E[s] for
// every shard s in E. JSON-marshals as an object with stringified shard
// ids ({"0":5,"1":7}).
type EpochVector map[int]uint64

// Max returns the largest epoch in the vector (0 when empty) — the
// scalar summary used where a single epoch is displayed.
func (ev EpochVector) Max() uint64 {
	var m uint64
	for _, e := range ev {
		if e > m {
			m = e
		}
	}
	return m
}

// Covers reports whether every shard in want has published at least as
// far in ev — the read-your-writes check for a read view against an ack
// vector.
func (ev EpochVector) Covers(want EpochVector) bool {
	for s, e := range want {
		if ev[s] < e {
			return false
		}
	}
	return true
}

// Meta is the serializable partition metadata served at /v1/partition:
// everything a client needs to route reads, interpret per-shard
// snapshot sections, and detect per-shard restarts.
type Meta struct {
	Shards int `json:"shards"`
	N      int `json:"n"`
	K      int `json:"k"`
	// Bounds are the owned-range boundaries: shard i owns
	// [Bounds[i], Bounds[i+1]).
	Bounds []uint32 `json:"bounds"`
	// Instances[i] identifies shard i's embedder lifetime; a changed
	// instance means that shard restarted and its epochs reset.
	Instances []uint64 `json:"instances"`
	// Epochs is the published epoch vector at response time.
	Epochs EpochVector `json:"epochs"`
}

// Shard is one unit of the sharded serving tier: an embedder spanning
// the full vertex range whose published rows are restricted to
// [Lo, Hi).
type Shard struct {
	ID     int
	Lo, Hi uint32
	D      *dyn.DynamicEmbedder
}

// NewShards builds one embedder per partition range over the shared
// initial labels. Every shard spans the full vertex range (folds are
// global; see the package comment) with its publish window set to its
// owned range. opts applies to every shard; a zero opts.K is inferred
// once so all shards agree on the embedding width.
func NewShards(p *Partition, y []int32, opts dyn.Options) ([]*Shard, error) {
	if len(y) != p.N {
		return nil, fmt.Errorf("shard: %d labels for %d vertices", len(y), p.N)
	}
	if opts.K == 0 {
		for _, c := range y {
			if int(c)+1 > opts.K {
				opts.K = int(c) + 1
			}
		}
	}
	shards := make([]*Shard, p.Shards())
	for i := range shards {
		lo, hi := p.Range(i)
		o := opts
		o.OwnedLo, o.OwnedHi = int(lo), int(hi)
		d, err := dyn.New(p.N, y, o)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		shards[i] = &Shard{ID: i, Lo: lo, Hi: hi, D: d}
	}
	return shards, nil
}

// Split scatters one write batch across the partition: each edge
// operation is delivered to its endpoints' owners (once when they
// coincide, to both when the edge is cut) and label updates are
// broadcast to every shard (class counts are global, and a relabel
// touches neighbor rows on any shard). Operation order within each
// sub-batch preserves the original batch order, so per-row fold order —
// and therefore the published floats under serial folds — matches the
// unsharded embedder exactly. Returns the per-shard sub-batches and the
// number of cut edge operations (delivered twice).
func Split(p *Partition, b dyn.Batch) (subs []dyn.Batch, cut int) {
	if p.Shards() == 1 {
		return []dyn.Batch{b}, 0 // one range owns every endpoint: nothing to scatter or copy
	}
	subs = make([]dyn.Batch, p.Shards())
	route := func(dst func(s *dyn.Batch) *[]graph.Edge, edges []graph.Edge) {
		for _, e := range edges {
			ou, ov := p.Owner(e.U), p.Owner(e.V)
			lu := dst(&subs[ou])
			*lu = append(*lu, e)
			if ov != ou {
				lv := dst(&subs[ov])
				*lv = append(*lv, e)
				cut++
			}
		}
	}
	route(func(s *dyn.Batch) *[]graph.Edge { return &s.Insert }, b.Insert)
	route(func(s *dyn.Batch) *[]graph.Edge { return &s.Delete }, b.Delete)
	if len(b.Labels) > 0 {
		for i := range subs {
			subs[i].Labels = b.Labels
		}
	}
	return subs, cut
}

// Ops returns the operation count of one sub-batch (the coalescer's
// accounting unit).
func Ops(b dyn.Batch) int { return len(b.Insert) + len(b.Delete) + len(b.Labels) }
