// Package corpus maintains the seed pool of a coverage-guided fuzzing
// campaign: seeds that covered new branches are retained and scheduled for
// further mutation, weighted by how much novelty they contributed.
package corpus

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/sqlast"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Seed is one retained test case.
type Seed struct {
	ID       int
	TC       sqlast.TestCase
	NewEdges int  // edges this seed contributed when added
	Picked   int  // times scheduled
	Split    bool // a half cut from a long seed, not harvested into the library

	sql string // TC rendered by SQL, "" until first use
}

// Types returns the seed's SQL Type Sequence.
func (s *Seed) Types() sqlt.Sequence { return s.TC.Types() }

// SQL returns the seed's script text, rendering TC on first use. A retained
// seed's statements are frozen (mutants share them and clone only what they
// change), so the text is rendered once per seed rather than once per
// checkpoint snapshot.
func (s *Seed) SQL() string {
	if s.sql == "" {
		s.sql = s.TC.SQL()
	}
	return s.sql
}

// Pool is the seed pool. Selection is weighted toward seeds that brought
// more new edges and against seeds already scheduled many times, a
// lightweight version of AFL++'s favored-seed scheduling.
type Pool struct {
	rng   *rand.Rand
	seeds []*Seed
}

// NewPool returns an empty pool.
func NewPool(rng *rand.Rand) *Pool { return &Pool{rng: rng} }

// Add retains a test case, recording how many new edges it contributed.
func (p *Pool) Add(tc sqlast.TestCase, newEdges int) *Seed {
	s := &Seed{ID: len(p.seeds), TC: tc, NewEdges: newEdges}
	p.seeds = append(p.seeds, s)
	return s
}

// Len returns the pool size.
func (p *Pool) Len() int { return len(p.seeds) }

// Import replaces the pool's contents with restored seeds, reassigning IDs
// by position so restored pools schedule identically to the originals.
func (p *Pool) Import(seeds []*Seed) {
	p.seeds = make([]*Seed, len(seeds))
	for i, s := range seeds {
		s.ID = i
		p.seeds[i] = s
	}
}

// Select schedules one seed; it returns nil when the pool is empty.
func (p *Pool) Select() *Seed {
	if len(p.seeds) == 0 {
		return nil
	}
	// Tournament of 3: pick the candidate with the best score.
	best := p.seeds[p.rng.Intn(len(p.seeds))]
	for i := 0; i < 2; i++ {
		c := p.seeds[p.rng.Intn(len(p.seeds))]
		if c.score() > best.score() {
			best = c
		}
	}
	best.Picked++
	return best
}

func (s *Seed) score() int { return 1 + s.NewEdges - 2*s.Picked }

// All returns every retained seed in insertion order.
func (p *Pool) All() []*Seed { return p.seeds }

// Since returns the seeds added after the pool held mark entries — the
// per-epoch delta a sharded campaign donates to its sibling shards at a
// merge barrier.
func (p *Pool) Since(mark int) []*Seed {
	if mark >= len(p.seeds) {
		return nil
	}
	return p.seeds[mark:]
}

// Sequences returns the type sequences of all retained seeds.
func (p *Pool) Sequences() []sqlt.Sequence {
	out := make([]sqlt.Sequence, len(p.seeds))
	for i, s := range p.seeds {
		out[i] = s.Types()
	}
	return out
}
