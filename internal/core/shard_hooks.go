package core

import (
	"github.com/seqfuzz/lego/internal/affinity"
	"github.com/seqfuzz/lego/internal/sqlast"
)

// This file is the narrow surface the sharded campaign executor
// (internal/shard) uses to cross-pollinate discoveries between workers at
// epoch barriers. Both entry points are deterministic: they draw from the
// fuzzer's own seeded RNG stream (seed splitting may consult the fixer) and
// mutate only this fuzzer's state, so calling them in a fixed shard order
// keeps the whole campaign schedule-independent.

// AdoptSeed retains a test case that covered new branches, in this shard or
// in a sibling: it joins the pool, its AST structures enter the library,
// its first statement's type becomes a synthesis start, and its type
// sequence is analyzed for new affinities (Algorithm 2), which are queued
// for synthesis. ingest is AdoptSeed plus seed splitting; a sibling's seed
// is never split here — the donor already split it, and those halves
// arrive as their own pool deltas. tc may be the donor's own test case:
// pool statements are frozen, so shards share them, and nothing writes
// tc's slots either. An empty test case is ignored.
func (f *Fuzzer) AdoptSeed(tc sqlast.TestCase, newEdges int) {
	if len(tc) == 0 {
		return
	}
	f.pool.Add(tc, newEdges)
	f.lib.Harvest(tc)
	if !f.opts.DisableSequenceAlgorithms {
		f.synth.AddStart(tc[0].Type())
		f.pending = append(f.pending, f.aff.Analyze(tc.Types())...)
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
