// Package baselines re-implements the three comparison fuzzers of the
// paper's evaluation against the same engine, coverage map and bug oracle as
// LEGO, so that Figure 9 and Tables II/III compare strategies rather than
// harnesses:
//
//   - SQUIRREL: coverage-guided mutation that preserves each seed's SQL Type
//     Sequence, mutating structure and data within individual statements
//     with semantics-guided dependency refill.
//   - SQLancer: rule-based generation of valid test cases biased to
//     CREATE/INSERT/SELECT patterns (pivoted-query style), no feedback.
//   - SQLsmith: generation of one deep SELECT per test case over a prepared
//     schema (PostgreSQL only, as in the paper).
package baselines

import (
	"math/rand"

	"github.com/seqfuzz/lego/internal/corpus"
	"github.com/seqfuzz/lego/internal/harness"
	"github.com/seqfuzz/lego/internal/instantiate"
	"github.com/seqfuzz/lego/internal/mutate"
	"github.com/seqfuzz/lego/internal/sqlt"
)

// Squirrel is the mutation-based baseline. Its loop mirrors LEGO's with the
// sequence-oriented steps removed: select a seed, produce syntax-preserving
// intra-statement mutants, keep those that cover new branches.
type Squirrel struct {
	rng    *rand.Rand
	runner *harness.Runner
	pool   *corpus.Pool
	mut    *mutate.Mutator

	// MutantsPerSeed is how many mutants one iteration derives (default 24,
	// roughly LEGO's per-iteration execution count, for budget fairness).
	MutantsPerSeed int
}

// NewSquirrel builds the baseline and ingests the shared initial seeds.
func NewSquirrel(d sqlt.Dialect, seed int64, hazards bool) *Squirrel {
	rng := rand.New(rand.NewSource(seed))
	lib := instantiate.NewLibrary()
	inst := instantiate.New(rng, lib, d)
	s := &Squirrel{
		rng:            rng,
		runner:         harness.NewRunner(d, hazards),
		pool:           corpus.NewPool(rng),
		mut:            mutate.New(rng, inst, d),
		MutantsPerSeed: 24,
	}
	for _, tc := range harness.InitialSeeds(d) {
		_, newEdges, _ := s.runner.Execute(tc)
		s.pool.Add(tc, newEdges)
	}
	return s
}

// Runner implements harness.Fuzzer.
func (s *Squirrel) Runner() *harness.Runner { return s.runner }

// Pool exposes the seed pool.
func (s *Squirrel) Pool() *corpus.Pool { return s.pool }

// Step implements harness.Fuzzer: one seed, many intra-statement mutants.
func (s *Squirrel) Step(exhausted func() bool) {
	seed := s.pool.Select()
	if seed == nil {
		return
	}
	for k := 0; k < s.MutantsPerSeed; k++ {
		if exhausted() {
			return
		}
		tc := s.mut.MutateValues(seed.TC)
		if tc == nil {
			continue
		}
		novel, newEdges, _ := s.runner.Execute(tc)
		if novel {
			s.pool.Add(tc, newEdges)
		}
	}
}
