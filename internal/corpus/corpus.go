// Package corpus maintains the seed pool of a coverage-guided fuzzing
// campaign: seeds that covered new branches are retained and scheduled for
// further mutation, weighted by how much novelty they contributed.
package corpus

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/checkpoint"
	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Seed is one retained test case. It is immutable: its fields are set when
// it is built, and its statements are frozen, so every shard of a campaign
// shares one Seed object. Scheduling counts live in each Pool.
type Seed struct {
	TC       sqlast.TestCase
	NewEdges int  // edges this seed contributed when added
	Split    bool // a half cut from a long seed, not harvested into the library

	entry string // the checkpoint entry, "" until first use
}

// Types returns the seed's SQL Type Sequence.
func (s *Seed) Types() sqlt.Sequence { return s.TC.Types() }

// Entry returns the seed's checkpoint entry, its JSON object in the saved
// store (checkpoint.AppendSeed over the rendered script and the fields),
// building it on first use: a seed is rendered and encoded once per
// campaign, not once per snapshot. A campaign calls it only while its
// shards are parked, or on the goroutine of the shard that made the seed
// before a barrier shares it.
func (s *Seed) Entry() string {
	if s.entry == "" {
		sql := s.TC.SQL()
		b := make([]byte, 0, len(sql)+64) // room for the fields and a few escapes
		s.entry = string(checkpoint.AppendSeed(b, checkpoint.Seed{SQL: sql, NewEdges: s.NewEdges, Split: s.Split}))
	}
	return s.entry
}

// Pool is the seed pool. Selection is weighted toward seeds that brought
// more new edges and against seeds already scheduled many times, a
// lightweight version of AFL++'s favored-seed scheduling.
type Pool struct {
	rng    *rand.Rand
	seeds  []*Seed
	picked []int // picked[i]: times seeds[i] was scheduled from this pool
}

// NewPool returns an empty pool.
func NewPool(rng *rand.Rand) *Pool { return &Pool{rng: rng} }

// Add retains a test case, recording how many new edges it contributed.
func (p *Pool) Add(tc sqlast.TestCase, newEdges int) *Seed {
	s := &Seed{TC: tc, NewEdges: newEdges}
	p.Adopt(s, 0)
	return s
}

// Adopt appends a seed, shared with any other pool, scheduled picked times.
func (p *Pool) Adopt(s *Seed, picked int) {
	p.seeds = append(p.seeds, s)
	p.picked = append(p.picked, picked)
}

// Len returns the pool size.
func (p *Pool) Len() int { return len(p.seeds) }

// Select schedules one seed; it returns nil when the pool is empty.
func (p *Pool) Select() *Seed {
	if len(p.seeds) == 0 {
		return nil
	}
	// Tournament of 3: pick the candidate with the best score.
	best := p.rng.Intn(len(p.seeds))
	for i := 0; i < 2; i++ {
		if c := p.rng.Intn(len(p.seeds)); p.score(c) > p.score(best) {
			best = c
		}
	}
	p.picked[best]++
	return p.seeds[best]
}

func (p *Pool) score(i int) int { return 1 + p.seeds[i].NewEdges - 2*p.picked[i] }

// All returns every retained seed in insertion order.
func (p *Pool) All() []*Seed { return p.seeds }

// Picks returns how often each seed of All was scheduled (read-only).
func (p *Pool) Picks() []int { return p.picked }

// Since returns the seeds added after the pool held mark entries — the
// per-epoch delta a sharded campaign donates to its sibling shards at a
// merge barrier.
func (p *Pool) Since(mark int) []*Seed {
	if mark >= len(p.seeds) {
		return nil
	}
	return p.seeds[mark:]
}
