package core

import (
	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/corpus"
)

// This file is the narrow surface the sharded campaign executor
// (internal/shard) uses to cross-pollinate discoveries between workers at
// epoch barriers. Both entry points are deterministic: they draw from the
// fuzzer's own seeded RNG stream (seed splitting may consult the fixer) and
// mutate only this fuzzer's state, so calling them in a fixed shard order
// keeps the whole campaign schedule-independent.

// AdoptSeed retains a seed that covered new branches, in this shard or in
// a sibling (whose seed object it shares): it joins the pool and, unless it
// is a split half, its AST structures enter the library, its first
// statement's type becomes a synthesis start, and its type sequence is
// analyzed for new affinities (Algorithm 2), which are queued for
// synthesis. Only ingest splits seeds; a sibling's halves arrive as their
// own pool deltas. An empty test case is ignored.
func (f *Fuzzer) AdoptSeed(s *corpus.Seed) {
	if len(s.TC) == 0 {
		return
	}
	f.pool.Adopt(s, 0)
	if s.Split {
		return
	}
	f.lib.Harvest(s.TC)
	if !f.opts.DisableSequenceAlgorithms {
		f.synth.AddStart(s.TC[0].Type())
		f.pending = append(f.pending, f.aff.Analyze(s.Types())...)
	}
}

// AdoptAffinities folds a sibling shard's affinity map into this shard's.
// Pairs new to this shard are queued for progressive synthesis, as if
// Algorithm 2 had discovered them locally; under the LEGO- ablation the
// call is a no-op, since the ablation never synthesizes.
func (f *Fuzzer) AdoptAffinities(other *affinity.Map) {
	if f.opts.DisableSequenceAlgorithms {
		return
	}
	f.pending = append(f.pending, f.aff.Merge(other)...)
}
