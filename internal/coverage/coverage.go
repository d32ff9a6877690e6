// Package coverage provides the branch-coverage feedback substrate that
// stands in for AFL++'s compile-time instrumentation (paper §IV).
//
// Engine code declares probe sites with NewSite; executing code reports them
// to a Tracer. Like AFL, feedback is edge coverage: each (previous site,
// current site) pair hashes to a slot in a 64 KiB map, and hit counts are
// bucketed so that "same edge, many more hits" also counts as novelty. A Map
// accumulates the global virgin state; Accumulate implements the
// hitNewBranch predicate of Algorithm 1.
package coverage

import (
	"fmt"
	"sync"
)

// MapSize is the number of edge slots, matching AFL's default 2^16.
const MapSize = 1 << 16

// Site is a registered instrumentation point. Sites are created once at
// package init time via NewSite and are immutable afterwards.
type Site struct {
	id   uint16
	name string
}

// Name returns the site's registration name (for debugging and reports).
func (s Site) Name() string { return s.name }

var (
	registryMu sync.Mutex
	registry   []string
	nextSeq    uint32
)

// NewSite registers a probe point and returns its site handle. Names should
// be unique ("minidb/exec.insert.empty"); duplicates are allowed but make
// reports ambiguous. Safe for concurrent use, though typical use is package
// init.
func NewSite(name string) Site {
	registryMu.Lock()
	defer registryMu.Unlock()
	seq := nextSeq
	nextSeq++
	registry = append(registry, name)
	// Spread sequential ids over the 16-bit space (Knuth multiplicative
	// hash) so edge hashes decorrelate, as AFL does with random block ids.
	id := uint16((seq * 2654435761) >> 16)
	return Site{id: id, name: name}
}

// NumSites returns how many probe sites have been registered process-wide.
func NumSites() int {
	registryMu.Lock()
	defer registryMu.Unlock()
	return len(registry)
}

// Tracer records the edges of one execution. It is not safe for concurrent
// use; each fuzzing worker owns one.
type Tracer struct {
	prev    uint16
	counts  []uint16
	touched []uint32
}

// touchedCap is the initial capacity of a tracer's touched-edge list. A
// typical statement touches a few hundred edges; pre-sizing keeps the first
// executions of every campaign (and of every shard worker) from growing the
// slice through the whole doubling ladder.
const touchedCap = 1 << 12

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{
		counts:  make([]uint16, MapSize),
		touched: make([]uint32, 0, touchedCap),
	}
}

// Hit reports that execution reached site s.
func (t *Tracer) Hit(s Site) {
	idx := uint32(t.prev ^ s.id)
	if t.counts[idx] == 0 {
		t.touched = append(t.touched, idx)
	}
	if t.counts[idx] < ^uint16(0) {
		t.counts[idx]++
	}
	t.prev = s.id >> 1
}

// Batch is a reusable buffer of probe sites hit during one statement.
// Engine code appends sites locally (no tracer pointer chasing per probe)
// and replays them into a Tracer at statement end with Flush; because the
// tracer's edge hash depends only on the site sequence, a flushed batch
// produces byte-identical coverage to calling Hit site by site.
type Batch struct {
	// Sites is the pending hit list in execution order. The slice is owned
	// by the batch and recycled across statements.
	//
	//lego:borrowed valid until the next Flush or Reset on the same batch
	Sites []Site
}

// NewBatch returns a batch pre-sized to hold n sites before its first grow.
func NewBatch(n int) *Batch {
	return &Batch{Sites: make([]Site, 0, n)}
}

// Add appends one site hit to the batch.
//
//lego:hotpath
func (b *Batch) Add(s Site) { b.Sites = append(b.Sites, s) }

// Len returns the number of pending hits.
func (b *Batch) Len() int { return len(b.Sites) }

// Reset discards pending hits without replaying them.
func (b *Batch) Reset() { b.Sites = b.Sites[:0] }

// HitBatch replays every site in b against the tracer, in order, exactly as
// if Hit had been called per site.
//
//lego:hotpath
func (t *Tracer) HitBatch(b *Batch) {
	prev := t.prev
	counts := t.counts
	for _, s := range b.Sites {
		idx := uint32(prev ^ s.id)
		if counts[idx] == 0 {
			t.touched = append(t.touched, idx) //lego:allow hotalloc — touched is pre-sized to touchedCap at construction and recycled by Reset
		}
		if counts[idx] < ^uint16(0) {
			counts[idx]++
		}
		prev = s.id >> 1
	}
	t.prev = prev
}

// Flush replays b into the tracer and truncates it for reuse.
//
//lego:hotpath
func (t *Tracer) Flush(b *Batch) {
	t.HitBatch(b)
	b.Sites = b.Sites[:0]
}

// Reset clears the tracer for the next execution in O(edges touched).
func (t *Tracer) Reset() {
	for _, idx := range t.touched {
		t.counts[idx] = 0
	}
	t.touched = t.touched[:0]
	t.prev = 0
}

// Edges returns the number of distinct edges in the current execution.
func (t *Tracer) Edges() int { return len(t.touched) }

// bucket classifies a hit count the way AFL buckets trace counts.
func bucket(n uint16) uint8 {
	switch {
	case n == 0:
		return 0
	case n == 1:
		return 1 << 0
	case n == 2:
		return 1 << 1
	case n == 3:
		return 1 << 2
	case n <= 7:
		return 1 << 3
	case n <= 15:
		return 1 << 4
	case n <= 31:
		return 1 << 5
	case n <= 127:
		return 1 << 6
	default:
		return 1 << 7
	}
}

// Map is the accumulated (virgin) coverage state of one fuzzing campaign.
type Map struct {
	virgin []uint8 // bitmask of seen buckets per edge
	edges  int     // number of edges with any bucket seen
}

// NewMap returns an empty coverage map.
func NewMap() *Map {
	return &Map{virgin: make([]uint8, MapSize)}
}

// Accumulate folds one execution into the map. It returns whether the
// execution contributed novelty — a brand-new edge, or a new hit-count
// bucket on a known edge — and the number of brand-new edges.
func (m *Map) Accumulate(t *Tracer) (novel bool, newEdges int) {
	for _, idx := range t.touched {
		b := bucket(t.counts[idx])
		if m.virgin[idx]&b == 0 {
			if m.virgin[idx] == 0 {
				newEdges++
				m.edges++
			}
			m.virgin[idx] |= b
			novel = true
		}
	}
	return novel, newEdges
}

// WouldBeNovel reports whether folding t would contribute novelty, without
// mutating the map.
func (m *Map) WouldBeNovel(t *Tracer) bool {
	for _, idx := range t.touched {
		if m.virgin[idx]&bucket(t.counts[idx]) == 0 {
			return true
		}
	}
	return false
}

// EdgeCount returns the number of distinct edges accumulated so far — the
// "branches covered" metric of Figure 9 and Table IV.
func (m *Map) EdgeCount() int { return m.edges }

// EdgeState is one accumulated edge (slot index + seen-bucket mask), the
// serializable unit of campaign coverage state.
type EdgeState struct {
	Idx  uint32 `json:"i"`
	Mask uint8  `json:"m"`
}

// Export returns the map's non-virgin edges in ascending slot order, for
// checkpointing.
func (m *Map) Export() []EdgeState {
	out := make([]EdgeState, 0, m.edges)
	for idx, mask := range m.virgin {
		if mask != 0 {
			out = append(out, EdgeState{Idx: uint32(idx), Mask: mask})
		}
	}
	return out
}

// Import replaces the map's state with previously exported edges.
func (m *Map) Import(edges []EdgeState) {
	for i := range m.virgin {
		m.virgin[i] = 0
	}
	m.edges = 0
	for _, e := range edges {
		if int(e.Idx) >= len(m.virgin) || e.Mask == 0 {
			continue
		}
		if m.virgin[e.Idx] == 0 {
			m.edges++
		}
		m.virgin[e.Idx] |= e.Mask
	}
}

// Merge OR-folds other's virgin buckets into m, the epoch-barrier merge of
// the campaign executor: after merging every shard into the first active
// shard's map and that map back into the others, all workers share one
// virgin state.
// Merge is commutative and idempotent in its effect on the final mask set.
func (m *Map) Merge(other *Map) {
	for idx, mask := range other.virgin {
		if mask == 0 {
			continue
		}
		if m.virgin[idx] == 0 {
			m.edges++
		}
		m.virgin[idx] |= mask
	}
}

// Diff returns the edge buckets present in m but absent from other — what m
// would contribute if merged into other. Each EdgeState's Mask holds only
// the missing buckets.
func (m *Map) Diff(other *Map) []EdgeState {
	var out []EdgeState
	for idx, mask := range m.virgin {
		if d := mask &^ other.virgin[idx]; d != 0 {
			out = append(out, EdgeState{Idx: uint32(idx), Mask: d})
		}
	}
	return out
}

// Clone returns an independent copy of the map.
func (m *Map) Clone() *Map {
	c := &Map{virgin: make([]uint8, MapSize), edges: m.edges}
	copy(c.virgin, m.virgin)
	return c
}

// String summarizes the map for logs.
func (m *Map) String() string {
	return fmt.Sprintf("coverage.Map{edges: %d}", m.edges)
}
